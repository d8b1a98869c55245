"""Source hygiene: every module uses each name it imports, and every
function the benchmark tracer wraps by name exists."""

import ast
from pathlib import Path

import graphpoly

PACKAGE = Path(graphpoly.__file__).parent


def imported_names(tree):
    """(bound name, line) for each import outside `from __future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno


def unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.stem}.{name} (line {line})"
            for name, line in imported_names(tree) if name not in used]


def test_every_imported_name_is_used():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [entry for path in modules for entry in unused_imports(path)]
    assert unused == []


def test_every_traced_name_resolves():
    # the benchmark's tracer wraps these by name; a deletion here would
    # break its traced runs without failing anything else
    source = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    tree = ast.parse(source.read_text(), filename=str(source))
    spanned = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["SPANNED"])
    names = [f"{module}.{fn}" for module, fns in spanned.items() for fn in fns]
    names += ["graph.induced_from_mask", "properties.GraphProperty.holds"]
    missing = []
    for name in names:
        obj = graphpoly
        for attr in name.split("."):
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(name)
    assert len(names) > 2 and missing == []
