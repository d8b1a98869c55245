"""Source hygiene: every module uses each name it imports, every
top-level library name has a caller in the library, every function the
benchmark tracer wraps by name exists, and no function takes a cap as a
bare int."""

import ast
from pathlib import Path

import graphpoly

PACKAGE = Path(graphpoly.__file__).parent
TRACER = Path(__file__).parents[1] / "perfbench" / "tracing.py"


def library_modules():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    return modules


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
    unused = [entry for path in library_modules()
              for entry in unused_imports(path)]
    assert unused == []


def test_caps_reach_their_loops_only_as_a_caps_value():
    banned = {"cap", "cap_n", "cap_m", "cap_partition"}
    found = [f"{path.stem}:{node.lineno} {arg.arg}"
             for path in library_modules()
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.FunctionDef, ast.Lambda))
             for arg in node.args.args + node.args.kwonlyargs
             if arg.arg in banned]
    assert found == []


def spanned_names(tree):
    """module.function for each entry of the tracer's SPANNED table."""
    spanned = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["SPANNED"])
    return [f"{module}.{fn}" for module, fns in spanned.items() for fn in fns]


def test_every_library_name_has_a_library_caller():
    # a name counts as used when its own module reads it or another module
    # imports it; attributes do not count, so `terms.extend(...)` keeps no
    # library function named extend alive
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    exempt = set(spanned_names(tree))
    exempt |= {node.args[0].value for node in ast.walk(tree)
               if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute)
               and node.func.attr == "counted"}
    defined, used = [], set()
    for path in library_modules():
        tree = ast.parse(path.read_text(), filename=str(path))
        defined += [f"{path.stem}.{node.name}" for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        used |= {f"{path.stem}.{node.id}" for node in ast.walk(tree)
                 if isinstance(node, ast.Name)}
        used |= {f"{node.module}.{alias.name}" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 1
                 for alias in node.names}
    unused = [name for name in defined if name not in used | exempt]
    assert len(defined) > len(exempt) and unused == []


def test_every_traced_name_resolves():
    # the benchmark's tracer wraps these by name; a deletion here would
    # break its traced runs without failing anything else
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    names = spanned_names(tree)
    names += ["graph.induced_from_mask", "properties.GraphProperty.holds"]
    missing = []
    for name in names:
        obj = graphpoly
        for attr in name.split("."):
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(name)
    assert len(names) > 2 and missing == []
