"""The measurement study of Section IV.

:func:`aggregate_reports` folds stage-1/2 reports plus one graph into
every statistic the paper reports, and :class:`MeasurementAggregator`
maintains the same fold incrementally under mutations.  Callers measure
through the :class:`~repro.api.AnalysisService` facade with a
:class:`~repro.api.MeasurementQuery` -- over static profiles
(``AnalysisService(ecosystem)``) or a probed internet
(``AnalysisService.from_internet``) -- so measurement shares the facade's
version-keyed result cache, warm level-engine fixpoints, and batch
planning.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Mapping

from repro.core.authproc import aggregate_path_statistics
from repro.core.collection import exposure_table
from repro.core.tdg import DependencyLevel
from repro.model.account import AuthPurpose, PathType
from repro.model.factors import CredentialFactor
from repro.model.factors import PersonalInfoKind, Platform
from repro.utils.serialization import (
    enum_keyed_dict,
    enum_keyed_from_dict,
    level_map_from_dict,
    level_map_to_dict,
    platform_map_from_dict,
    platform_map_to_dict,
)


@dataclasses.dataclass(frozen=True)
class MeasurementResults:
    """Everything Section IV reports, as data."""

    service_count: int
    total_auth_paths: int
    distinct_path_signatures: int
    #: Fig. 3 aggregates per platform (see ``aggregate_path_statistics``).
    fig3: Mapping[Platform, Mapping[str, float]]
    #: Table I per platform: kind -> fraction of services exposing it.
    table1: Mapping[Platform, Mapping[PersonalInfoKind, float]]
    #: Section IV-B dependency-level fractions per platform.
    dependency: Mapping[Platform, Mapping[DependencyLevel, float]]

    def summary_lines(self) -> List[str]:
        """Compact text summary used by examples and benches."""
        lines = [
            f"services analyzed: {self.service_count}",
            f"authentication paths: {self.total_auth_paths} "
            f"({self.distinct_path_signatures} distinct factor signatures)",
        ]
        for platform, stats in self.fig3.items():
            lines.append(
                f"[{platform.value}] SMS-only sign-in "
                f"{100 * stats['sms_only_signin']:.1f}% vs reset "
                f"{100 * stats['sms_only_reset']:.1f}%; SMS anywhere "
                f"{100 * stats['uses_sms_anywhere']:.1f}%"
            )
        for platform, fractions in self.dependency.items():
            rendered = ", ".join(
                f"{level.value}={100 * fraction:.2f}%"
                for level, fraction in fractions.items()
            )
            lines.append(f"[{platform.value}] {rendered}")
        return lines

    def to_dict(self) -> Dict[str, Any]:
        """Wire-ready document (enums as value strings)."""
        return {
            "service_count": self.service_count,
            "total_auth_paths": self.total_auth_paths,
            "distinct_path_signatures": self.distinct_path_signatures,
            "fig3": platform_map_to_dict(self.fig3),
            "table1": platform_map_to_dict(
                self.table1, lambda by_kind: enum_keyed_dict(by_kind)
            ),
            "dependency": level_map_to_dict(self.dependency),
        }

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "MeasurementResults":
        """Inverse of :meth:`to_dict` (exact round-trip)."""
        return cls(
            service_count=document["service_count"],
            total_auth_paths=document["total_auth_paths"],
            distinct_path_signatures=document["distinct_path_signatures"],
            fig3=platform_map_from_dict(document["fig3"], dict),
            table1=platform_map_from_dict(
                document["table1"],
                lambda by_kind: enum_keyed_from_dict(
                    by_kind, PersonalInfoKind, float
                ),
            ),
            dependency=level_map_from_dict(document["dependency"]),
        )


def aggregate_reports(
    auth_reports, collection_reports, tdg
) -> MeasurementResults:
    """Aggregate stage-1/2 reports plus one graph into Section IV's
    statistics.

    This is the measurement *engine* -- the one place the aggregation
    happens.  The :class:`~repro.api.AnalysisService` facade calls it for
    :class:`~repro.api.MeasurementQuery`.
    """
    fig3: Dict[Platform, Mapping[str, float]] = {}
    table1: Dict[Platform, Mapping[PersonalInfoKind, float]] = {}
    for platform in (Platform.WEB, Platform.MOBILE):
        fig3[platform] = aggregate_path_statistics(auth_reports, platform)
        table1[platform] = exposure_table(collection_reports, platform)
    # One batch call through the level engine: both platforms share
    # the same warm depth fixpoints (and, in session mode, whatever
    # classification entries survived the last delta).
    dependency: Mapping[Platform, Mapping[DependencyLevel, float]] = (
        tdg.levels_report((Platform.WEB, Platform.MOBILE))
    )

    total_paths = sum(len(r.paths()) for r in auth_reports.values())
    signatures = sum(
        r.distinct_path_signatures for r in auth_reports.values()
    )
    return MeasurementResults(
        service_count=len(auth_reports),
        total_auth_paths=total_paths,
        distinct_path_signatures=signatures,
        fig3=fig3,
        table1=table1,
        dependency=dependency,
    )


class MeasurementAggregator:
    """Section IV's aggregation as an incrementally-maintained view.

    :func:`aggregate_reports` is a pure fold over per-service report
    facts: every Fig. 3 fraction is a count of services satisfying a
    per-service predicate, Table I is a count per (platform, kind), and
    the path totals are sums.  This class keeps exactly those counters
    and updates them per service when a mutation refreshes that
    service's stage-1/2 reports -- fold the old report's facts out, fold
    the new report's in -- so re-measuring after a mutation costs
    O(touched services) instead of the full O(ecosystem) re-aggregation.
    :meth:`results` then divides the counters (the same integer
    divisions the scratch fold performs, so results are equal
    *exactly*, float for float; ``tests/test_api_service.py`` locks this
    against :func:`aggregate_reports` under mutation streams).

    Owned lazily by
    :class:`~repro.dynamic.session.DynamicAnalysisSession`; the
    :class:`~repro.api.AnalysisService` facade serves
    :class:`~repro.api.MeasurementQuery` through it.
    """

    _PLATFORMS = (Platform.WEB, Platform.MOBILE)

    def __init__(self, auth_reports, collection_reports) -> None:
        self._path_types = tuple(PathType)
        self._service_count = 0
        self._total_paths = 0
        self._signatures = 0
        #: platform -> [n, sms_signin, sms_reset, uses_sms, extra_info,
        #: platform path total, then one count per path type].
        self._auth: Dict[Platform, List[int]] = {
            platform: [0] * (6 + len(self._path_types))
            for platform in self._PLATFORMS
        }
        #: platform -> [n, then one exposure count per info kind].
        self._exposure: Dict[Platform, List[int]] = {
            platform: [0] * (1 + len(PersonalInfoKind))
            for platform in self._PLATFORMS
        }
        self._kinds = tuple(PersonalInfoKind)
        for name in auth_reports:
            self.update(
                name,
                None,
                auth_reports[name],
                None,
                collection_reports.get(name),
            )

    # -- per-service facts (the predicates of aggregate_reports) --------

    def _fold_auth(self, report, platform: Platform, sign: int) -> None:
        paths = [p for p in report.paths() if p.platform is platform]
        if not paths:
            return
        counters = self._auth[platform]
        counters[0] += sign
        if report.has_sms_only_path(platform, AuthPurpose.SIGN_IN):
            counters[1] += sign
        if report.has_sms_only_path(platform, AuthPurpose.PASSWORD_RESET):
            counters[2] += sign
        if any(CredentialFactor.SMS_CODE in p.factors for p in paths):
            counters[3] += sign
        if all(p.path_type is not PathType.GENERAL for p in paths):
            counters[4] += sign
        counters[5] += sign * len(paths)
        for path in paths:
            counters[6 + self._path_types.index(path.path_type)] += sign

    def _fold_exposure(self, report, platform: Platform, sign: int) -> None:
        if report is None:
            return
        if not any(item.platform is platform for item in report.items):
            return
        counters = self._exposure[platform]
        counters[0] += sign
        kinds = report.kinds_on(platform)
        for index, kind in enumerate(self._kinds):
            if kind in kinds:
                counters[1 + index] += sign

    def update(
        self, name: str, old_auth, new_auth, old_collection, new_collection
    ) -> None:
        """Fold one service's report change into the counters.

        ``old_* is None`` means an addition, ``new_* is None`` a removal;
        both present is a replacement.  The session calls this for
        exactly the services a delta touched.
        """
        del name  # counters are anonymous; the argument documents intent
        for report, sign in ((old_auth, -1), (new_auth, +1)):
            if report is None:
                continue
            self._service_count += sign
            self._total_paths += sign * len(report.paths())
            self._signatures += sign * report.distinct_path_signatures
            for platform in self._PLATFORMS:
                self._fold_auth(report, platform, sign)
        for report, sign in ((old_collection, -1), (new_collection, +1)):
            for platform in self._PLATFORMS:
                self._fold_exposure(report, platform, sign)

    # -- snapshot wire form ---------------------------------------------

    def counters_to_dict(self) -> Dict[str, object]:
        """The fold state as a plain document (session snapshots carry
        this so a restored worker re-measures without an O(ecosystem)
        refold)."""
        return {
            "service_count": self._service_count,
            "total_paths": self._total_paths,
            "signatures": self._signatures,
            "auth": {
                platform.value: list(self._auth[platform])
                for platform in self._PLATFORMS
            },
            "exposure": {
                platform.value: list(self._exposure[platform])
                for platform in self._PLATFORMS
            },
        }

    @classmethod
    def from_counters(cls, document) -> "MeasurementAggregator":
        """Inverse of :meth:`counters_to_dict`: a view with the recorded
        integer counters and no reports folded (the counters *are* the
        fold)."""
        view = cls({}, {})
        view._service_count = document["service_count"]
        view._total_paths = document["total_paths"]
        view._signatures = document["signatures"]
        for platform in cls._PLATFORMS:
            view._auth[platform][:] = document["auth"][platform.value]
            view._exposure[platform][:] = document["exposure"][platform.value]
        return view

    # -- read side -------------------------------------------------------

    def _fig3(self, platform: Platform) -> Dict[str, float]:
        counters = self._auth[platform]
        n = counters[0]
        if not n:
            raise ValueError(f"no services on platform {platform}")
        total_paths = counters[5]
        by_type = {
            path_type: counters[6 + index]
            for index, path_type in enumerate(self._path_types)
        }
        return {
            "services": float(n),
            "sms_only_signin": counters[1] / n,
            "sms_only_reset": counters[2] / n,
            "uses_sms_anywhere": counters[3] / n,
            "extra_info_required": counters[4] / n,
            "general_share": by_type[PathType.GENERAL] / total_paths,
            "info_share": by_type[PathType.INFO] / total_paths,
            "unique_share": by_type[PathType.UNIQUE] / total_paths,
            "total_paths": float(total_paths),
        }

    def _table1(self, platform: Platform) -> Dict[PersonalInfoKind, float]:
        counters = self._exposure[platform]
        n = counters[0]
        if not n:
            raise ValueError(f"no services observed on {platform}")
        return {
            kind: counters[1 + index] / n
            for index, kind in enumerate(self._kinds)
        }

    def results(self, tdg) -> MeasurementResults:
        """The full Section IV payload at the current counters, with the
        dependency fractions served by ``tdg``'s (incrementally
        maintained) level engine."""
        fig3 = {platform: self._fig3(platform) for platform in self._PLATFORMS}
        table1 = {
            platform: self._table1(platform) for platform in self._PLATFORMS
        }
        dependency = tdg.levels_report(self._PLATFORMS)
        return MeasurementResults(
            service_count=self._service_count,
            total_auth_paths=self._total_paths,
            distinct_path_signatures=self._signatures,
            fig3=fig3,
            table1=table1,
            dependency=dependency,
        )
