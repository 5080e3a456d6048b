"""The pair summary of ``tools/bench_pairs.py`` on fixed numbers."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import bench_pairs  # noqa: E402

PARENT = [14.5, 13.5, 15.3, 14.0, 14.9, 14.6, 13.9, 15.0, 14.2, 14.8]
CHANGE = [12.1, 11.4, 12.6, 12.0, 14.95, 11.9, 12.2, 12.5, 11.8, 12.3]


def test_lower_is_better_counts_wins_and_resolves_against_parent_iqr():
    summary = bench_pairs.summarize(PARENT, CHANGE, "lower")
    assert summary["pairs"] == 10
    # Pair 5 is the only one the change loses (14.95 > 14.9).
    assert summary["wins"] == 9
    assert summary["parent"] == {"q1": 14.05, "median": 14.55, "q3": 14.875}
    assert summary["change"]["median"] == pytest.approx(12.15)
    assert summary["parent_iqr"] == pytest.approx(0.825)
    assert summary["gap"] == pytest.approx(2.4)
    assert summary["resolved"] is True


def test_higher_is_better_flips_the_sign():
    summary = bench_pairs.summarize([0.5, 0.6, 0.7], [0.4, 0.6, 0.9], "higher")
    assert summary["wins"] == 1  # ties are not wins
    assert summary["gap"] == pytest.approx(0.0)
    assert summary["resolved"] is False


def test_unresolved_when_gap_is_inside_the_spread():
    summary = bench_pairs.summarize([10, 20, 30, 40], [9, 19, 29, 39])
    assert summary["wins"] == 4
    assert summary["gap"] == pytest.approx(1.0)
    assert summary["parent_iqr"] == pytest.approx(15.0)
    assert summary["resolved"] is False


def test_single_pair_and_bad_input():
    assert bench_pairs.quartiles([3.0]) == {
        "q1": 3.0,
        "median": 3.0,
        "q3": 3.0,
    }
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0], [1.0], "sideways")
