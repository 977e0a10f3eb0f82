"""Import-layer lint: packages of ``repro`` depend top → down.

The paper describes a stack — UR queries over logical relations, over
the virtual physical schema, over navigation expressions interpreted
against the Web — and the code should lean the same way: a layer
imports the layers beneath it, never the ones above.  This test walks
every ``import`` in ``src/repro`` with :mod:`ast` (including imports
inside functions, which are still dependencies) and checks each
cross-package edge against :data:`LAYERS`.

The edges that still point up are listed in :data:`ALLOWED_UPWARD`, each
with the reason it has not been removed yet.  A new upward edge fails
here; so does a whitelisted edge that no longer exists, so the list
shrinks as the code does.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Top → down.  A module may import any layer after its own.
LAYERS = (
    "__main__",  # python -m repro
    "cli",
    "repro",  # the package facade, src/repro/__init__.py
    "cluster",
    "service",
    "mqo",
    "store",
    "baselines",
    "domains",
    "core",  # webbase assembly and the execution engine
    "ur",
    "logical",
    "vps",
    "navigation",
    "flogic",
    "sites",
    "web",
    "relational",
    "singleflight",
    "errors",
)

#: Edges that still point up, each with why it stays for now.
ALLOWED_UPWARD = {
    ("core", "mqo"): "WebBase builds the multi-query optimizer, reads answer revisions",
    ("core", "store"): "WebBase opens the tiered store and its change feed",
    ("navigation", "vps"): "the map compiler emits VPS handles (vps.handle)",
    ("ur", "core"): "the UR planner catches the engine's FanoutError/FetchFailedError",
    ("vps", "core"): "the result cache counts into core.metrics.MetricsRegistry",
}


def _layer_of(module: str) -> str | None:
    parts = module.split(".")
    if parts[0] != "repro":
        return None
    return parts[1] if len(parts) > 1 else "repro"


def _module_name(path: Path) -> list[str]:
    parts = ["repro", *path.relative_to(SRC).with_suffix("").parts]
    return parts[:-1] if parts[-1] == "__init__" else parts


def _imports(path: Path) -> list[tuple[str, int]]:
    """Every module ``path`` imports, with its line, resolving relative
    imports; imports inside functions and ``TYPE_CHECKING`` blocks too."""
    package = _module_name(path)
    if path.name != "__init__.py":
        package = package[:-1]
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.extend((alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package[: len(package) - node.level + 1]
                module = ".".join(base + ([node.module] if node.module else []))
            else:
                module = node.module or ""
            found.append((module, node.lineno))
    return found


def _edges() -> dict[tuple[str, str], list[str]]:
    """(importing layer, imported layer) → the import sites."""
    edges: dict[tuple[str, str], list[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        source = _layer_of(".".join(_module_name(path)))
        for module, line in _imports(path):
            target = _layer_of(module)
            if target is None or target == source:
                continue
            site = "%s:%d" % (path.relative_to(SRC.parent), line)
            edges.setdefault((source, target), []).append(site)
    return edges


class TestLayering:
    def test_every_package_has_a_layer(self):
        packages = {_layer_of(".".join(_module_name(p))) for p in SRC.rglob("*.py")}
        assert packages - set(LAYERS) == set()

    def test_no_import_points_up_except_the_listed_edges(self):
        rank = {layer: index for index, layer in enumerate(LAYERS)}
        upward = {
            edge: sites
            for edge, sites in _edges().items()
            if rank[edge[0]] > rank[edge[1]]
        }
        unlisted = {e: s for e, s in upward.items() if e not in ALLOWED_UPWARD}
        assert unlisted == {}, "upward imports: %r" % unlisted
        gone = set(ALLOWED_UPWARD) - set(upward)
        assert gone == set(), "whitelisted edges no longer exist: %r" % gone

    def test_the_web_layer_imports_nothing_from_vps(self):
        assert ("web", "vps") not in _edges()

    def test_singleflight_is_a_leaf(self):
        assert [e for e in _edges() if e[0] == "singleflight"] == []

    def test_the_walk_sees_function_local_imports(self):
        # repro.ur.planner imports the engine's errors inside a method.
        sites = _edges()[("ur", "core")]
        assert any(site.startswith("repro/ur/planner.py") for site in sites)
