"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "arrsym"

# perfbench/test_perfbench.py reads arrsym.witness.lattice_of
KEPT = {("witness.py", "lattice_of")}


def imported(tree):
    """The names the module's imports bind, ``from __future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def annotations(tree):
    """Every annotation: of arguments, of return values and of assignments."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            yield node.returns
            yield from (arg.annotation for arg in (*args.posonlyargs, *args.args,
                                                   *args.kwonlyargs, args.vararg,
                                                   args.kwarg) if arg is not None)
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used(tree):
    """The names the module reads: in code, in string annotations such as
    ``"ProjPoint"``, and in ``__all__``."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in filter(None, annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= used(ast.parse(node.value, mode="eval"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            names |= set(ast.literal_eval(node.value))
    return names


def test_every_import_is_used():
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        name = str(path.relative_to(SRC))
        unused += [f"{name}: {imp}" for imp in sorted(set(imported(tree)) - used(tree))
                   if (name, imp) not in KEPT]
    assert unused == []


def test_a_leftover_import_is_found():
    source = ("from __future__ import annotations\nfrom math import lcm, prod\n"
              "from .fields import QuadExt, sqrt\nfrom .geometry import cross\n"
              "def f(x: \"QuadExt\") -> int:\n    return lcm(x)\n")
    tree = ast.parse(source)
    assert set(imported(tree)) - used(tree) == {"prod", "sqrt", "cross"}
