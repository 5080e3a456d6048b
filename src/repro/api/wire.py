"""Kind-tagged wire codecs for typed queries and their results.

Result dataclasses already know how to ``to_dict``/``from_dict``
themselves; what a serving layer additionally needs is (a) the inverse
direction for *queries* -- a JSON body naming which query to run -- and
(b) a kind tag on both sides so a response document is self-describing.
This module is that seam: :func:`query_from_dict` is what the HTTP tier
feeds request bodies through, and the same codecs let
:meth:`~repro.api.service.AnalysisService.snapshot` carry its warm
result-cache entries across a migration.

``RolloutQuery`` is deliberately not wire-codable: its ``steps`` payload
can hold arbitrary mutation objects (service profiles included), which
belong to the trusted in-process API, not to request bodies.  Unknown
kinds raise ``ValueError`` -- the HTTP tier maps that to a 400.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from repro.analysis.measurement import MeasurementResults
from repro.api.queries import (
    ClosureQuery,
    ClosureSummary,
    CoupleFileQuery,
    CouplePage,
    DefenseEvalQuery,
    DefenseEvalResult,
    DependencyLevelsQuery,
    DependencyLevelsResult,
    EdgePage,
    EdgeSummary,
    EdgeSummaryQuery,
    LevelReportQuery,
    LevelReportResult,
    MeasurementQuery,
    Query,
    WeakEdgeQuery,
)
from repro.model.factors import PersonalInfoKind, Platform

__all__ = [
    "query_from_dict",
    "query_to_dict",
    "result_from_dict",
    "result_to_dict",
]


def _opt_tuple(value):
    return tuple(value) if value is not None else None


def _encode_level_report(query: LevelReportQuery) -> Dict[str, Any]:
    return {
        "platforms": [platform.value for platform in query.platforms],
        "attacker": query.attacker,
    }


def _decode_level_report(document: Mapping[str, Any]) -> LevelReportQuery:
    platforms = document.get("platforms")
    return LevelReportQuery(
        platforms=(
            tuple(Platform(value) for value in platforms)
            if platforms is not None
            else LevelReportQuery.platforms
        ),
        attacker=document.get("attacker"),
    )


def _encode_dependency_levels(
    query: DependencyLevelsQuery,
) -> Dict[str, Any]:
    return {"platform": query.platform.value, "attacker": query.attacker}


def _decode_dependency_levels(
    document: Mapping[str, Any],
) -> DependencyLevelsQuery:
    platform = document.get("platform")
    return DependencyLevelsQuery(
        platform=(
            Platform(platform)
            if platform is not None
            else DependencyLevelsQuery.platform
        ),
        attacker=document.get("attacker"),
    )


def _encode_closure(query: ClosureQuery) -> Dict[str, Any]:
    return {
        "initially_compromised": list(query.initially_compromised),
        "extra_info": [kind.value for kind in query.extra_info],
        "email_provider": query.email_provider,
        "attacker": query.attacker,
    }


def _decode_closure(document: Mapping[str, Any]) -> ClosureQuery:
    return ClosureQuery(
        initially_compromised=tuple(
            document.get("initially_compromised", ())
        ),
        extra_info=tuple(
            PersonalInfoKind(value)
            for value in document.get("extra_info", ())
        ),
        email_provider=document.get("email_provider"),
        attacker=document.get("attacker"),
    )


def _encode_measurement(query: MeasurementQuery) -> Dict[str, Any]:
    return {"attacker": query.attacker}


def _decode_measurement(document: Mapping[str, Any]) -> MeasurementQuery:
    return MeasurementQuery(attacker=document.get("attacker"))


def _encode_edge_summary(query: EdgeSummaryQuery) -> Dict[str, Any]:
    return {"include_weak": query.include_weak, "attacker": query.attacker}


def _decode_edge_summary(document: Mapping[str, Any]) -> EdgeSummaryQuery:
    return EdgeSummaryQuery(
        include_weak=bool(document.get("include_weak", False)),
        attacker=document.get("attacker"),
    )


def _encode_page_query(query) -> Dict[str, Any]:
    return {
        "cursor": query.cursor,
        "page_size": query.page_size,
        "max_size": query.max_size,
        "attacker": query.attacker,
    }


def _decode_couples(document: Mapping[str, Any]) -> CoupleFileQuery:
    return CoupleFileQuery(
        cursor=document.get("cursor", 0),
        page_size=document.get("page_size", 256),
        max_size=document.get("max_size", 3),
        attacker=document.get("attacker"),
    )


def _decode_weak_edges(document: Mapping[str, Any]) -> WeakEdgeQuery:
    return WeakEdgeQuery(
        cursor=document.get("cursor", 0),
        page_size=document.get("page_size", 1024),
        max_size=document.get("max_size", 3),
        attacker=document.get("attacker"),
    )


def _encode_defense_eval(query: DefenseEvalQuery) -> Dict[str, Any]:
    return {
        "defenses": (
            list(query.defenses) if query.defenses is not None else None
        ),
        "include_combined": query.include_combined,
        "attackers": (
            list(query.attackers) if query.attackers is not None else None
        ),
    }


def _decode_defense_eval(document: Mapping[str, Any]) -> DefenseEvalQuery:
    return DefenseEvalQuery(
        defenses=_opt_tuple(document.get("defenses")),
        include_combined=bool(document.get("include_combined", True)),
        attackers=_opt_tuple(document.get("attackers")),
    )


#: kind -> (query class, encode, decode); kinds match the first element
#: of each query's canonical cache key.
_QUERY_CODECS = {
    "level_report": (
        LevelReportQuery, _encode_level_report, _decode_level_report,
    ),
    "dependency_levels": (
        DependencyLevelsQuery,
        _encode_dependency_levels,
        _decode_dependency_levels,
    ),
    "closure": (ClosureQuery, _encode_closure, _decode_closure),
    "measurement": (
        MeasurementQuery, _encode_measurement, _decode_measurement,
    ),
    "edge_summary": (
        EdgeSummaryQuery, _encode_edge_summary, _decode_edge_summary,
    ),
    "couples": (CoupleFileQuery, _encode_page_query, _decode_couples),
    "weak_edges": (WeakEdgeQuery, _encode_page_query, _decode_weak_edges),
    "defense_eval": (
        DefenseEvalQuery, _encode_defense_eval, _decode_defense_eval,
    ),
}

_KIND_BY_QUERY = {
    cls: kind for kind, (cls, _enc, _dec) in _QUERY_CODECS.items()
}

#: kind -> result class; every listed class round-trips via its own
#: ``to_dict``/``from_dict``.
_RESULT_KINDS = {
    "level_report": LevelReportResult,
    "dependency_levels": DependencyLevelsResult,
    "closure": ClosureSummary,
    "measurement": MeasurementResults,
    "edge_summary": EdgeSummary,
    "couple_page": CouplePage,
    "edge_page": EdgePage,
    "defense_eval": DefenseEvalResult,
}

_KIND_BY_RESULT = {cls: kind for kind, cls in _RESULT_KINDS.items()}


def query_to_dict(query: Query) -> Dict[str, Any]:
    """One query as a kind-tagged JSON document."""
    kind = _KIND_BY_QUERY.get(type(query))
    if kind is None:
        raise ValueError(
            f"{type(query).__name__} is not wire-codable"
        )
    _cls, encode, _decode = _QUERY_CODECS[kind]
    document = encode(query)
    document["kind"] = kind
    return document


def query_from_dict(document: Mapping[str, Any]) -> Query:
    """Inverse of :func:`query_to_dict`; ``ValueError`` on unknown or
    missing kinds (the HTTP tier's 400 path)."""
    kind = document.get("kind")
    codec = _QUERY_CODECS.get(kind)
    if codec is None:
        raise ValueError(
            f"unknown query kind {kind!r} "
            f"(expected one of {sorted(_QUERY_CODECS)})"
        )
    _cls, _encode, decode = codec
    try:
        return decode(document)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed {kind!r} query: {exc}") from exc


def result_to_dict(result: Any) -> Dict[str, Any]:
    """One query result as a kind-tagged JSON document."""
    kind = _KIND_BY_RESULT.get(type(result))
    if kind is None:
        raise ValueError(
            f"{type(result).__name__} is not wire-codable"
        )
    return {"kind": kind, "data": result.to_dict()}


def result_from_dict(document: Mapping[str, Any]) -> Any:
    """Inverse of :func:`result_to_dict`."""
    kind = document.get("kind")
    cls = _RESULT_KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown result kind {kind!r}")
    return cls.from_dict(document["data"])
