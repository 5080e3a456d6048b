"""Shared benchmark fixtures.

Each benchmark regenerates one table or figure of the paper and prints the
measured rows next to the published values (run with ``-s`` to see them;
they are also attached to the benchmark's ``extra_info``).
"""

from __future__ import annotations

import pytest

from repro.api import AnalysisService, MeasurementQuery
from repro.catalog import build_default_ecosystem
from repro.core import ActFort


@pytest.fixture(scope="session")
def ecosystem():
    """The calibrated 201-service catalog."""
    return build_default_ecosystem()


@pytest.fixture(scope="session")
def actfort(ecosystem):
    """ActFort over the catalog, with the TDG pre-built."""
    analyzer = ActFort.from_ecosystem(ecosystem)
    analyzer.tdg()
    return analyzer


@pytest.fixture(scope="session")
def measurement(actfort):
    """The full Section IV measurement results."""
    return AnalysisService.from_actfort(actfort).execute(MeasurementQuery())
