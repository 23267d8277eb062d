"""Exception hierarchy shared across the package."""

from math import log10

# A ParseError quotes at most this many characters of its input.
QUOTE_CHARS = 60


def _quoted(text: str, form=repr) -> str:
    """form (repr, or str for a name) of text's first QUOTE_CHARS chars, "..." if cut."""
    if len(text) <= QUOTE_CHARS:
        return form(text)
    return form(text[:QUOTE_CHARS]) + "..."


def _digits(n: int) -> tuple[str, int]:
    """_quoted(str(n), str) and the digit count of the integer n, which may be
    past the 4,300 digits str() writes: none past the first QUOTE_CHARS + 3 is."""
    cut = max(int(log10(abs(n) or 1)) - QUOTE_CHARS - 1, 0)    # leaves QUOTE_CHARS + 1 or more
    head = str(abs(n) // 10 ** cut)
    return _quoted(str(n) if not cut else "-" * (n < 0) + head, str), cut + len(head)


class ArrsymError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ArrsymError):
    """Malformed input text (.cfg / .plan / .arr / scalar / cycle notation)."""


class ValidationError(ArrsymError):
    """Structurally well-formed data violating a domain invariant."""


class FieldMixError(ArrsymError):
    """Arithmetic between scalars of two different quadratic fields."""


class PoleError(ArrsymError):
    """Evaluation of a rational function at a zero of its denominator."""


class DegenerateError(ArrsymError):
    """Degenerate geometric or algebraic input (zero leading coefficient,
    meet of coincident lines, join of coincident points, duplicate lines)."""


class UnsupportedDegreeError(ArrsymError):
    """A square-free part of degree >= 3, which poly_reduce does not split,
    or a constraint of degree >= 3 every root of which realizes the table."""


class ConstraintError(ArrsymError):
    """Moduli-constraint derivation failed: zero or multiple admissible
    factors, or a constraint that does not disconnect the moduli."""


class RenderError(ArrsymError):
    """Arrangement cannot be drawn (no real section, bad viewport)."""
