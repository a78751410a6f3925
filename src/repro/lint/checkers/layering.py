"""RPR010: the declared layer DAG is law — no upward or cyclic imports.

The repo is layered so the simulation stays a leaf dependency of
everything operational (the paper's numbers must never depend on how
they are served):

    model (core/sim/disks/workloads/faults/...)  <- imported by
    engine (sweep/analysis)                      <- imported by
    services (serve/dist/realio/bench)           <- imported by
    cli

``LintConfig.layers`` maps layer names to module prefixes, lowest layer
first: its insertion order is the layer order.  A module may import its
own layer or any lower one.  Two things are findings:

* an **upward import** — a lower-layer module importing a higher-layer
  one, reported at the import line with both endpoints and layers;
* an **import cycle** — any strongly connected component in the
  top-level import graph, reported once with the full cycle chain.

Only runtime imports count: ``if TYPE_CHECKING:`` blocks are erased at
runtime and function-scoped imports are the sanctioned way to break a
genuine cycle, so both are ignored.  Modules matching no declared
layer are skipped (scripts, tests, fixtures).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

from repro.lint.findings import Finding, Severity
from repro.lint.registry import get_rule, make_finding, path_matches, register

if TYPE_CHECKING:  # pragma: no cover
    from repro.lint.config import LintConfig
    from repro.lint.project import ProjectModel

RULE_ID = "RPR010"


def layer_of(package_path: str, config: "LintConfig") -> Optional[str]:
    """The declared layer a module belongs to, or ``None``."""
    for layer, prefixes in config.layers.items():
        if path_matches(package_path, prefixes):
            return layer
    return None


def _find_cycle(graph: dict[str, set[str]], component: set[str]) -> list[str]:
    """A concrete cycle path through one strongly connected component."""
    start = min(component)
    path = [start]
    on_path = {start}
    while True:
        current = path[-1]
        successors = sorted(
            node for node in graph.get(current, ()) if node in component
        )
        nxt = successors[0]  # an SCC node always has a successor inside it
        if nxt in on_path:
            return path[path.index(nxt):] + [nxt]
        path.append(nxt)
        on_path.add(nxt)


def _strongly_connected(graph: dict[str, set[str]]) -> list[set[str]]:
    """Tarjan's SCC algorithm, iterative, deterministic order."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = [0]
    components: list[set[str]] = []

    for root in sorted(graph):
        if root in index:
            continue
        work: list[tuple[str, Optional[str], list[str]]] = [
            (root, None, sorted(graph.get(root, ())))
        ]
        while work:
            node, parent, children = work[-1]
            if node not in index:
                index[node] = lowlink[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            while children:
                child = children.pop(0)
                if child not in index:
                    work.append((child, node, sorted(graph.get(child, ()))))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if advanced:
                continue
            work.pop()
            if parent is not None:
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component: set[str] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(component)
    return components


@register(
    RULE_ID,
    name="layering",
    severity=Severity.ERROR,
    rationale=(
        "The simulation must stay a leaf dependency of everything "
        "operational: an upward or cyclic import lets serving, "
        "distribution, or CLI concerns leak into the layer that "
        "produces the paper's numbers."
    ),
    scope="model",
)
def check_layering(
    model: "ProjectModel", config: "LintConfig"
) -> Iterator[Finding]:
    rule = get_rule(RULE_ID)
    if not config.layers:
        return
    rank = {layer: index for index, layer in enumerate(config.layers)}
    order = " < ".join(config.layers)

    # -- upward imports --------------------------------------------------------
    for name in sorted(model.modules):
        module = model.modules[name]
        importer_layer = layer_of(module.info.package_path, config)
        if importer_layer is None:
            continue
        for edge in module.imports:
            if not edge.top_level:
                continue
            imported = model.modules.get(edge.imported)
            if imported is None:
                continue
            imported_layer = layer_of(imported.info.package_path, config)
            if imported_layer is None:
                continue
            if rank[importer_layer] < rank[imported_layer]:
                yield make_finding(
                    rule, module.info.relpath, edge.line,
                    f"upward import: {module.name} (layer "
                    f"{importer_layer!r}) imports {edge.imported} (layer "
                    f"{imported_layer!r}); chain: {module.name} "
                    f"[{importer_layer}] -> {edge.imported} "
                    f"[{imported_layer}], against layer order {order}",
                )

    # -- cycles ----------------------------------------------------------------
    graph = model.import_graph()
    for component in _strongly_connected(graph):
        if len(component) < 2:
            # A single node is a cycle only if it imports itself, which
            # the graph construction already excludes.
            continue
        cycle = _find_cycle(graph, component)
        anchor = model.modules[cycle[0]]
        line = 1
        for edge in anchor.imports:
            if edge.top_level and edge.imported == cycle[1]:
                line = edge.line
                break
        yield make_finding(
            rule, anchor.info.relpath, line,
            "import cycle: " + " -> ".join(cycle),
        )
