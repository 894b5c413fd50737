"""Import contract: which of the package's modules import which.

The three routes to the damped dynamics (RK4 in ``oracle`` over ``model``,
the closed forms in ``solution``, the doubled space in ``doubled``) check
each other only while none of them runs another's code; they share the base
``fock`` alone.  This test parses every module in the directory of
``jcdamp.__file__`` with ``ast`` and collects each module's imports of
sibling modules, function-local imports included, so run against an
installed package it checks the installation.  The result must equal
``GRAPH``: a new edge or a new module needs a change to the table.

An importtime check cannot show this: importing any submodule runs
``jcdamp/__init__``, which loads every module.

The same parse finds orphans: a module-level private name (``_name``) that
no module of the package reads, such as a helper a simplification left
behind.  The converse is a stale name: a ``module._name`` written in the
README, a module's text or ``tests/reference.py`` that is no longer an
attribute of ``jcdamp.module``, such as a helper a simplification removed.
"""

import ast
import importlib
import pathlib
import re

import jcdamp

PACKAGE_DIR = pathlib.Path(jcdamp.__file__).parent
TESTS_DIR = pathlib.Path(__file__).resolve().parent

# module -> the sibling modules it imports
GRAPH = {
    "fock": set(),
    "quadrature": set(),
    "model": {"fock"},
    "solution": {"fock"},
    "doubled": {"fock"},
    "oracle": {"fock", "model"},
    "factorize": {"fock", "quadrature"},
    "wigner": {"fock", "model", "solution"},
    "cli": {"doubled", "fock", "model", "oracle", "solution", "wigner"},
    "__init__": {"doubled", "factorize", "fock", "model", "oracle", "solution", "wigner"},
}

# each route's modules; no module of one may import a module of another
ROUTES = {"rk4": {"oracle", "model"}, "closed_form": {"solution"}, "doubled": {"doubled"}}


def package_sources() -> dict:
    """Module name -> source text, for every ``*.py`` of the package."""
    return {path.stem: path.read_text() for path in sorted(PACKAGE_DIR.glob("*.py"))}


def import_graph(sources: dict) -> dict:
    """Module name -> the set of sibling modules its source imports, at any
    depth of its syntax tree.  ``from . import x`` (or ``from jcdamp import x``)
    imports module x, or a name of ``__init__``."""
    graph = {}
    for module, source in sources.items():
        edges = set()
        for node in ast.walk(ast.parse(source, filename=f"{module}.py")):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    parts = alias.name.split(".")
                    if parts[0] == "jcdamp":
                        edges.add(parts[1] if len(parts) > 1 else "__init__")
            elif isinstance(node, ast.ImportFrom):
                parts = (node.module or "").split(".")
                if node.level == 0 and parts[0] == "jcdamp":
                    parts = parts[1:]
                elif node.level != 1:
                    continue
                if parts and parts[0]:
                    edges.add(parts[0])
                else:
                    edges |= {alias.name if alias.name in sources else "__init__"
                              for alias in node.names}
        graph[module] = edges
    return graph


def test_package_imports_match_the_table():
    assert import_graph(package_sources()) == GRAPH


def test_table_keeps_the_routes_apart():
    for route, members in ROUTES.items():
        others = set().union(*(m for r, m in ROUTES.items() if r != route))
        for module in members:
            assert not GRAPH[module] & others, f"{module} ({route}) imports another route"


def test_planted_route_edge_is_caught():
    sources = package_sources()
    sources["doubled"] += "\nfrom .model import split_components\n"
    graph = import_graph(sources)
    assert graph["doubled"] == {"fock", "model"}
    assert graph != GRAPH


def test_function_local_and_absolute_imports_count():
    sources = package_sources()
    sources["factorize"] += "\n\ndef late():\n    from jcdamp.oracle import TimeGrid\n"
    sources["solution"] += "\n\ndef late():\n    import jcdamp.doubled\n    from . import model\n"
    graph = import_graph(sources)
    assert graph["factorize"] == {"fock", "quadrature", "oracle"}
    assert graph["solution"] == {"fock", "doubled", "model"}


def test_module_missing_from_the_table_is_caught():
    sources = package_sources()
    sources["extra"] = "from .fock import ModelParams\n"
    assert import_graph(sources) != GRAPH


def private_names(sources: dict) -> list:
    """(module, name) for every module-level function, class or assigned name
    of the package that starts with one underscore and is not a dunder."""
    names = []
    for module, source in sources.items():
        for node in ast.parse(source, filename=f"{module}.py").body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            names += [(module, name) for name in defined
                      if name.startswith("_") and not name.startswith("__")]
    return names


def loaded_names(sources: dict) -> set:
    """Every name the package reads: a bare name or an attribute, in any module."""
    loaded = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source, filename=f"{module}.py")):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return loaded


def orphans(sources: dict) -> list:
    loaded = loaded_names(sources)
    return [f"{module}.{name}" for module, name in private_names(sources) if name not in loaded]


def test_every_private_name_is_read():
    sources = package_sources()
    assert private_names(sources)
    assert orphans(sources) == []


def test_planted_orphan_is_caught():
    sources = package_sources()
    sources["model"] += "\n\ndef _left_behind(x):\n    return _left_behind_table[x]\n"
    sources["model"] += "\n_left_behind_table: dict = {}\n_unread = _left_behind_table\n"
    assert orphans(sources) == ["model._left_behind", "model._unread"]


def written_names(texts: dict, modules) -> set:
    """Every ``module._name`` written in ``texts`` (file name -> text), code
    or prose, whose module is one of ``modules``."""
    found = re.findall(r"\b(\w+)\.(_(?!_)\w+)", "\n".join(texts.values()))
    return {(module, name) for module, name in found if module in modules}


def stale_names(texts: dict) -> list:
    modules = set(package_sources()) - {"__init__"}
    return sorted(f"{module}.{name}" for module, name in written_names(texts, modules)
                  if not hasattr(importlib.import_module(f"jcdamp.{module}"), name))


def documented_texts() -> dict:
    """The README, every module of the package and the tests' reference helpers."""
    texts = {f"jcdamp/{module}.py": source for module, source in package_sources().items()}
    for path in (TESTS_DIR.parent / "README.md", TESTS_DIR / "reference.py"):
        texts[path.name] = path.read_text()
    return texts


def test_every_written_private_name_is_live():
    texts = documented_texts()
    assert written_names(texts, {"model", "oracle"})
    assert stale_names(texts) == []


def test_planted_stale_name_is_caught():
    texts = documented_texts()
    texts["README.md"] += "\nThe damping is coded once, in `model._coupled_rhs`.\n"
    texts["reference.py"] += "\n# as oracle._ladder took it; cli.__doc__ and model.__dict__ are live\n"
    assert stale_names(texts) == ["model._coupled_rhs", "oracle._ladder"]
