"""Standing gate on the package surface.

Every module under ``src/repro`` is imported by shipped code — the CLI, the
experiments, the benchmark suite, ``tools/`` or another module — or it is a
test oracle named in :data:`ORACLES`.  The walk reads imports with ``ast``
and executes nothing; a ``from repro.pkg import name`` is followed through
the package ``__init__`` to the module that defines ``name``, and the
re-export itself does not count as an importer (nor do ``tests/`` and
``examples/``).
"""

import ast
import importlib
import pkgutil
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

# module nothing shipped imports -> what tests compare it with
ORACLES = {
    "repro.inference.shafershenoy": (
        "an independent message-passing architecture, compared with "
        "InferenceEngine and variable elimination"
    ),
    "repro.models.classic": (
        "textbook networks whose published posteriors are compared with "
        "InferenceEngine to three decimals"
    ),
    "repro.jt.calibration": (
        "separator-agreement check, compared with every executor's "
        "propagated potentials"
    ),
    "repro.jt.validate": (
        "tree-structure and running-intersection checks, compared with "
        "built, generated and rerooted trees"
    ),
}

ENTRY_POINTS = {"repro.cli", "repro.__main__"}
# Outside src/, these are what ships: they count as importers.
CALLER_DIRS = ("tools", "benchmarks/suite")


def _module_name(path):
    return ".".join(path.relative_to(SRC).with_suffix("").parts)


def _source_files():
    """``{dotted name: path}`` for modules and for packages (their __init__)."""
    modules, packages = {}, {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        if path.name == "__init__.py":
            packages[_module_name(path.parent)] = path
        else:
            modules[_module_name(path)] = path
    return modules, packages


MODULES, PACKAGES = _source_files()


def _imports(path):
    """Every ``(module, name-or-None)`` the file imports, at any depth."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{path}: relative import"
            for alias in node.names:
                yield node.module, alias.name


def _resolve(module, name, seen=()):
    """The non-package modules that ``from module import name`` reaches."""
    if module in MODULES:
        return {module}
    if module not in PACKAGES or name is None:
        # numpy, stdlib; ``import repro.pkg``: attribute use is not followed
        return set()
    dotted = f"{module}.{name}"
    if dotted in MODULES:
        return {dotted}
    if dotted in PACKAGES or (module, name) in seen:
        return set()
    found = set()
    for sub_module, sub_name in _imports(PACKAGES[module]):
        if sub_name == name:
            found |= _resolve(sub_module, name, seen + ((module, name),))
    return found


def _imported_by(path):
    found = set()
    for module, name in _imports(path):
        found |= _resolve(module, name)
    return found


def _import_graph():
    graph = {name: _imported_by(path) - {name} for name, path in MODULES.items()}
    external = set()
    for directory in CALLER_DIRS:
        for path in sorted((REPO / directory).rglob("*.py")):
            external |= _imported_by(path)
    return graph, external


def _experiment_modules():
    """The modules behind the rows of ``repro.experiments.EXPERIMENTS``."""
    tree = ast.parse(PACKAGES["repro.experiments"].read_text())
    return {
        f"repro.experiments.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "repro.experiments"
        for alias in node.names
        if f"repro.experiments.{alias.name}" in MODULES
    }


def test_every_module_is_imported_by_shipped_code_or_is_a_named_oracle():
    graph, external = _import_graph()
    imported = external.union(*graph.values())
    roots = ENTRY_POINTS | _experiment_modules()
    unimported = set(MODULES) - imported - roots
    assert unimported == set(ORACLES), (
        "modules no shipped code imports must be exactly the named oracles; "
        f"unnamed: {sorted(unimported - set(ORACLES))}, "
        f"named but imported: {sorted(set(ORACLES) - unimported)}"
    )

    # No island either: modules that only import each other.
    reached, frontier = set(), roots | external | set(ORACLES)
    while frontier:
        reached |= frontier
        frontier = set().union(*(graph[m] for m in frontier)) - reached
    assert set(MODULES) - reached == set()


def test_every_exported_name_resolves():
    import repro

    packages = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg
    ]
    for package in packages:
        for name in getattr(package, "__all__", ()):
            assert hasattr(package, name), f"{package.__name__}.{name}"
