"""No record in the package has an ``__init__`` that only hands its
parameters to ``self._fill``: ``Record``'s own constructor takes them by
position or keyword, and ``Record._of`` builds one from values already
checked, so such an ``__init__`` is a second construction path."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "arrsym"


def forwarding_inits(tree):
    """The classes whose ``__init__`` body, its docstring aside, is one call
    ``self._fill(...)`` of its parameters as they are."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if not (isinstance(node, ast.FunctionDef) and node.name == "__init__"):
                continue
            body = node.body[1:] if ast.get_docstring(node) is not None else node.body
            params = {arg.arg for arg in ast.walk(node.args) if isinstance(arg, ast.arg)}
            call = body[0].value if len(body) == 1 and isinstance(body[0], ast.Expr) else None
            if (isinstance(call, ast.Call) and ast.unparse(call.func) == "self._fill"
                    and not call.keywords
                    and all(isinstance(a, ast.Name) and a.id in params for a in call.args)):
                yield cls.name


def test_no_init_only_forwards_to_fill():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(SRC)}: {name}" for name in forwarding_inits(tree)]
    assert found == []


def test_a_forwarding_init_is_found():
    source = '''
class Forwards(Record):
    __slots__ = ("a", "b")

    def __init__(self, a, b=0) -> None:
        """Forwards both."""
        self._fill(a, b)


class Checks(Record):
    __slots__ = ("a",)

    def __init__(self, a) -> None:
        if a < 0:
            raise ValueError(a)
        self._fill(a)


class Computes(Record):
    __slots__ = ("a", "twice")

    def __init__(self, a) -> None:
        self._fill(a, 2 * a)


class Other:
    def __init__(self, a) -> None:
        self._fill = a
'''
    assert list(forwarding_inits(ast.parse(source))) == ["Forwards"]
