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
"""

import ast
import pathlib

import jcdamp

PACKAGE_DIR = pathlib.Path(jcdamp.__file__).parent

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
