"""Package hygiene, checked with the standard library `ast` only.

Every import in the package modules is used (`__init__.py` is skipped: its
imports are the package's re-exports) and comes from the standard library,
NumPy or the package itself; the map side (`direct.py`) imports no
gauge-side module; every defaulted parameter of a package function is
set by some call in `src/`, `tests/` or `perfbench/`; every name in
`smframe.__all__` is named in one of those trees outside the module that
defines it (and the package's re-exports); and the package modules stay
within a line budget.
"""

import ast
import sys
from pathlib import Path

import smframe

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "smframe"


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items()
            if name not in used]


def test_no_unused_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    assert [msg for p in modules for msg in _unused_imports(p)] == []


def test_runtime_imports_are_stdlib_numpy_or_package():
    # function-local imports count too: NumPy is the only runtime dependency
    foreign = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or a relative one (the package's own)
            foreign += [f"{path.name}:{node.lineno}: {name}" for name in names
                        if name.split(".")[0] not in
                        sys.stdlib_module_names | {"numpy", "smframe"}]
    assert foreign == []


def test_map_side_imports_only_field_geometry_and_errors():
    own = []
    for node in ast.walk(ast.parse((SRC / "direct.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            own += [(node.lineno, name) for name in
                    ([node.module] if node.module else [a.name for a in node.names])]
    assert own
    assert [f"direct.py:{line}: {name}" for line, name in own
            if name not in ("field", "geometry", "errors")] == []


def _defaulted_params(fn: ast.FunctionDef, method: bool) -> list[tuple[int | None, str]]:
    """(position or None for keyword-only, name) of each defaulted parameter;
    a method's positions exclude self."""
    args = fn.args
    pos = (args.posonlyargs + args.args)[1 if method else 0:]
    first = len(pos) - len(args.defaults)
    out = [(i, a.arg) for i, a in enumerate(pos) if i >= first]
    return out + [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]


def _package_functions():
    """(module, called name, def, is method); a class's __init__ is called by
    the class name.  Presets are skipped: `[initial]` sets their parameters
    by name from a config file."""
    for path in sorted(SRC.glob("*.py")):
        if path.name == "presets.py":
            continue
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                yield path.name, node.name, node, False
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                     for d in item.decorator_list)
                        name = node.name if item.name == "__init__" else item.name
                        yield path.name, name, item, not static


def _calls_by_name() -> dict[str, list[ast.Call]]:
    calls: dict[str, list[ast.Call]] = {}
    for top in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = getattr(f, "id", None) or getattr(f, "attr", None)
                    if name:
                        calls.setdefault(name, []).append(node)
    return calls


def _sets(call: ast.Call, position: int | None, name: str) -> bool:
    if any(kw.arg in (name, None) for kw in call.keywords):  # None: **kwargs
        return True
    return position is not None and (
        len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_default_parameter_is_set_somewhere():
    # a parameter that no call sets is a constant in disguise; calls are
    # matched by name only, so a shared method name counts for every class
    calls = _calls_by_name()
    unset = [f"{module}:{fn.lineno}: {name}({param})"
             for module, name, fn, method in _package_functions()
             for position, param in _defaulted_params(fn, method)
             if not any(_sets(c, position, param) for c in calls.get(name, []))]
    assert unset == []


def _identifiers(tree: ast.AST) -> set[str]:
    """Every name a module reads, reaches as an attribute or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(part for alias in node.names for part in alias.name.split("."))
            names.update((getattr(node, "module", None) or "").split("."))
    return names


def _defines(path: Path, tree: ast.Module, name: str) -> bool:
    """The module is `name` itself, or defines it at its top level."""
    return path.stem == name or any(
        getattr(node, "name", None) == name
        or any(getattr(t, "id", None) == name for t in getattr(node, "targets", ()))
        for node in tree.body)


def test_every_public_name_is_used_outside_its_module():
    # a public name that nothing else names is dead weight in the API
    trees = {path: ast.parse(path.read_text())
             for top in ("src", "tests", "perfbench")
             for path in sorted((ROOT / top).rglob("*.py"))}
    unused = [name for name in smframe.__all__
              if not any(name in _identifiers(tree) for path, tree in trees.items()
                         if path != SRC / "__init__.py" and not _defines(path, tree, name))]
    assert unused == []


#: the "less code" gate of ROADMAP.md: lines of src/smframe/*.py, obs.py left out
SRC_LINE_BUDGET = 2400


def test_package_stays_within_its_line_budget():
    lines = sum(len(path.read_text().splitlines()) for path in SRC.glob("*.py")
                if path.name != "obs.py")
    assert lines <= SRC_LINE_BUDGET
