"""Row/series generators for every figure and table in the paper.

Each function returns plain data (list-of-rows) that the benchmark harness
prints next to the paper's published values; rendering helpers produce the
ASCII versions of the graph figures.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.analysis.measurement import MeasurementResults
from repro.core.tdg import DependencyLevel, TransformationDependencyGraph
from repro.catalog.spec import TABLE1_MOBILE, TABLE1_WEB
from repro.model.factors import PersonalInfoKind, Platform

if TYPE_CHECKING:  # pragma: no cover - typing only; networkx loads lazily
    import networkx as nx

#: The paper's Fig. 3 / Section IV-B-1 reference values.
PAPER_PATH_TYPE_SHARES: Mapping[Platform, Mapping[str, float]] = {
    Platform.WEB: {"general": 0.5865, "info": 0.1345, "unique": 0.1635},
    Platform.MOBILE: {"general": 0.45, "info": 0.17, "unique": 0.17},
}

#: The paper's Section IV-B dependency-level percentages.
PAPER_DEPENDENCY: Mapping[Platform, Mapping[DependencyLevel, float]] = {
    Platform.WEB: {
        DependencyLevel.DIRECT: 0.7413,
        DependencyLevel.ONE_LAYER: 0.0983,
        DependencyLevel.TWO_LAYER_FULL: 0.0520,
        DependencyLevel.TWO_LAYER_MIXED: 0.0289,
        DependencyLevel.SAFE: 0.0444,
    },
    Platform.MOBILE: {
        DependencyLevel.DIRECT: 0.7556,
        DependencyLevel.ONE_LAYER: 0.2647,
        DependencyLevel.TWO_LAYER_FULL: 0.2059,
        DependencyLevel.TWO_LAYER_MIXED: 0.0882,
        DependencyLevel.SAFE: 0.0222,
    },
}

#: Table I reference values (kind -> fraction) per platform.
PAPER_TABLE1: Mapping[Platform, Mapping[PersonalInfoKind, float]] = {
    Platform.WEB: TABLE1_WEB,
    Platform.MOBILE: TABLE1_MOBILE,
}


def fig3_rows(results: MeasurementResults) -> List[Tuple[str, str, str, str]]:
    """Fig. 3 rows: (metric, platform, measured, paper)."""
    rows: List[Tuple[str, str, str, str]] = []
    for platform in (Platform.WEB, Platform.MOBILE):
        stats = results.fig3[platform]
        paper = PAPER_PATH_TYPE_SHARES[platform]
        rows.append(
            (
                "SMS-only sign-in",
                platform.value,
                f"{100 * stats['sms_only_signin']:.2f}%",
                "lower than reset (qualitative)",
            )
        )
        rows.append(
            (
                "SMS-only password reset",
                platform.value,
                f"{100 * stats['sms_only_reset']:.2f}%",
                "~direct-compromise rate",
            )
        )
        rows.append(
            (
                "SMS used somewhere",
                platform.value,
                f"{100 * stats['uses_sms_anywhere']:.2f}%",
                "> 80%",
            )
        )
        rows.append(
            (
                "extra info demanded",
                platform.value,
                f"{100 * stats['extra_info_required']:.2f}%",
                "< 20%",
            )
        )
        for share in ("general", "info", "unique"):
            rows.append(
                (
                    f"{share} path share",
                    platform.value,
                    f"{100 * stats[f'{share}_share']:.2f}%",
                    f"{100 * paper[share]:.2f}%",
                )
            )
    return rows


def table1_rows(
    results: MeasurementResults,
) -> List[Tuple[str, str, str, str, str]]:
    """Table I rows: (kind, measured web, paper web, measured mobile, paper mobile)."""
    rows: List[Tuple[str, str, str, str, str]] = []
    for kind in TABLE1_WEB:
        rows.append(
            (
                kind.value,
                f"{100 * results.table1[Platform.WEB].get(kind, 0.0):.2f}",
                f"{100 * TABLE1_WEB[kind]:.2f}",
                f"{100 * results.table1[Platform.MOBILE].get(kind, 0.0):.2f}",
                f"{100 * TABLE1_MOBILE[kind]:.2f}",
            )
        )
    return rows


def dependency_level_rows(
    results: MeasurementResults,
) -> List[Tuple[str, str, str, str, str]]:
    """Dependency rows: (level, measured web, paper web, measured mobile, paper mobile)."""
    rows: List[Tuple[str, str, str, str, str]] = []
    for level in DependencyLevel:
        rows.append(
            (
                level.value,
                f"{100 * results.dependency[Platform.WEB][level]:.2f}",
                f"{100 * PAPER_DEPENDENCY[Platform.WEB][level]:.2f}",
                f"{100 * results.dependency[Platform.MOBILE][level]:.2f}",
                f"{100 * PAPER_DEPENDENCY[Platform.MOBILE][level]:.2f}",
            )
        )
    return rows


def fig4_graph(
    tdg: TransformationDependencyGraph, size: int = 44, seed: int = 4
) -> nx.DiGraph:
    """The Fig. 4 connection graph: ``size`` accounts, strong edges.

    Nodes are chosen deterministically: every seed (named) service first,
    then synthetic services in name order until ``size`` is reached;
    ``fringe`` node attributes mark the red dots (SMS-only accounts).
    """
    names = [node.service for node in tdg.nodes]
    if len(names) < size:
        raise ValueError(f"graph has only {len(names)} nodes, need {size}")
    import random as _random

    rng = _random.Random(seed)
    seeds_first = [n for n in names if not n[-1].isdigit() or "_" not in n]
    rest = [n for n in names if n not in seeds_first]
    rng.shuffle(rest)
    chosen = (seeds_first + rest)[:size]
    chosen_set = set(chosen)

    full = tdg.to_networkx(include_weak=False)
    sub = full.subgraph(chosen_set).copy()
    return sub


def connection_graph_summary(graph: nx.DiGraph) -> Dict[str, float]:
    """Fig. 4 headline statistics: node/edge counts, fringe share, and how
    much of the graph the fringe nodes can reach."""
    fringe = {n for n, data in graph.nodes(data=True) if data.get("fringe")}
    internal = set(graph.nodes) - fringe
    reachable = set(fringe)
    frontier = list(fringe)
    while frontier:
        node = frontier.pop()
        for successor in graph.successors(node):
            if successor not in reachable:
                reachable.add(successor)
                frontier.append(successor)
    return {
        "nodes": float(graph.number_of_nodes()),
        "edges": float(graph.number_of_edges()),
        "fringe": float(len(fringe)),
        "internal": float(len(internal)),
        "fringe_share": len(fringe) / max(1, graph.number_of_nodes()),
        "reachable_from_fringe": len(reachable) / max(1, graph.number_of_nodes()),
    }


def render_connection_graph(graph: nx.DiGraph, max_edges: int = 40) -> str:
    """ASCII rendering of the Fig. 4 graph (adjacency list form)."""
    lines = ["Fig. 4 connection graph (o = fringe/red, # = internal/blue)"]
    for node in sorted(graph.nodes):
        marker = "o" if graph.nodes[node].get("fringe") else "#"
        targets = sorted(graph.successors(node))
        if targets:
            shown = ", ".join(targets[:6])
            more = f" (+{len(targets) - 6})" if len(targets) > 6 else ""
            lines.append(f"  {marker} {node} -> {shown}{more}")
        else:
            lines.append(f"  {marker} {node}")
        if len(lines) > max_edges:
            lines.append(f"  ... ({graph.number_of_nodes()} nodes total)")
            break
    return "\n".join(lines)


def render_fig11_tdg(
    tdg: TransformationDependencyGraph,
    services: Optional[Sequence[str]] = None,
) -> str:
    """ASCII rendering of the Fig. 11 per-node TDG structure.

    For each service: its authentication paths (credential factor file) and
    the personal information file, exactly the per-node structure Fig. 12
    diagrams for China Railway.
    """
    if services is None:
        services = [
            "china_railway",
            "ctrip",
            "facebook",
            "google",
            "alipay",
            "netease_mail",
            "gmail",
        ]
    lines = ["Transformation Dependency Graph (Fig. 11 nodes)"]
    for name in services:
        if name not in tdg:
            continue
        node = tdg.node(name)
        lines.append(f"[{name}] ({node.domain})")
        for index, path in enumerate(node.takeover_paths, start=1):
            lines.append(f"  Log_{index}: {path.describe()}")
        info = ", ".join(sorted(k.value for k in node.pia))
        lines.append(f"  PI file: {info or '(none fully exposed)'}")
        if node.pia_partial:
            partials = ", ".join(
                f"{kind.value}[{len(positions)} chars]"
                for kind, positions in sorted(
                    node.pia_partial.items(), key=lambda kv: kv[0].value
                )
            )
            lines.append(f"  PI (masked): {partials}")
        parents = sorted(tdg.full_capacity_parents(name))
        if parents:
            shown = ", ".join(parents[:5])
            more = f" (+{len(parents) - 5})" if len(parents) > 5 else ""
            lines.append(f"  full-capacity parents: {shown}{more}")
    return "\n".join(lines)
