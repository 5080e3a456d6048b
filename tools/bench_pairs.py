"""Alternating parent/change pairs of the benchmark's one command.

Runs ``python3 perfbench/run.py`` from two checkouts -- the parent commit
(a separate clone or ``git archive`` export) and the change -- in N pairs,
alternating which side runs first so drift on the machine falls on both
sides alike::

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload churn_reserve --pairs 10 --seed 1 --seconds 45 \\
        --metric serve_p50_ms

Prints every run's end-to-end values and wall seconds, each side's
median and quartiles per metric, and for ``--metric`` the number of
pairs the change won and whether the median gap exceeds the parent's
interquartile range.  The tool writes no file (``run.py`` keeps its own
records in each checkout's git-ignored results folder).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

SIDES = ("parent", "change")


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles (``statistics.quantiles``, inclusive method;
    a single value is its own quartiles)."""
    if len(values) == 1:
        (value,) = values
        return {"q1": value, "median": value, "q3": value}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(
    parent: Sequence[float], change: Sequence[float], better: str = "lower"
) -> Dict[str, object]:
    """Compare one metric over paired runs (``parent[i]`` with
    ``change[i]``).

    ``wins`` counts the pairs where the change is strictly better;
    ``gap`` is how much better the change's median is (negative when
    worse); ``resolved`` says whether that gap exceeds the parent's
    interquartile range."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same non-zero number of runs per side")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    sides = {"parent": quartiles(parent), "change": quartiles(change)}
    wins = sum(
        1
        for before, after in zip(parent, change)
        if sign * (before - after) > 0
    )
    gap = sign * (sides["parent"]["median"] - sides["change"]["median"])
    parent_iqr = sides["parent"]["q3"] - sides["parent"]["q1"]
    return {
        "pairs": len(parent),
        "wins": wins,
        "gap": gap,
        "parent_iqr": parent_iqr,
        "resolved": gap > parent_iqr,
        **sides,
    }


def _run_once(checkout: Path, argv: List[str]) -> Dict[str, object]:
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    wall = time.perf_counter() - started
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"{checkout}: perfbench/run.py exited {completed.returncode}\n"
            f"{completed.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    return {
        "wall_s": wall,
        "correct": result["correct"],
        "failed": result["failed"],
        "values": {
            name: entry["value"] for name, entry in result["metrics"].items()
        },
    }


def _better_of(metric: str, checkout: Path) -> str:
    """The metric's direction from the checkout's ``BENCHMARK.json``
    (``lower`` when it is not declared there)."""
    path = checkout / "BENCHMARK.json"
    if path.is_file():
        declared = json.loads(path.read_text())
        for entry in declared.get("end_to_end", []) + declared.get(
            "per_layer", []
        ):
            if entry["name"] == metric:
                return entry["better"]
    return "lower"


def _format(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.6g}"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, default=Path("."))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--metric", default="serve_p50_ms")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def main(argv) -> int:
    args = _parse(argv)
    checkouts = {
        "parent": args.parent.resolve(),
        "change": args.change.resolve(),
    }
    run_argv = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    runs: Dict[str, List[Dict[str, object]]] = {side: [] for side in SIDES}
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            run = _run_once(checkouts[side], run_argv)
            runs[side].append(run)
            values = " ".join(
                f"{name}={_format(value)}"
                for name, value in run["values"].items()
            )
            print(
                f"pair {pair + 1:>2} {side:<6} wall {run['wall_s']:7.1f} s "
                f"correct={run['correct']} {values}",
                flush=True,
            )
    metrics = list(runs["parent"][0]["values"])
    print("# per side: median [q1, q3]")
    for name in metrics + ["wall_s"]:
        cells = []
        for side in SIDES:
            values = [
                run["wall_s"] if name == "wall_s" else run["values"][name]
                for run in runs[side]
            ]
            spread = quartiles(values)
            cells.append(
                f"{side} {_format(spread['median'])} "
                f"[{_format(spread['q1'])}, {_format(spread['q3'])}]"
            )
        print(f"  {name:<16} " + "   ".join(cells))
    better = _better_of(args.metric, checkouts["change"])
    summary = summarize(
        [run["values"][args.metric] for run in runs["parent"]],
        [run["values"][args.metric] for run in runs["change"]],
        better,
    )
    print(
        f"# {args.metric} ({better} is better): change won "
        f"{summary['wins']} of {summary['pairs']} pairs; median gap "
        f"{_format(summary['gap'])} vs parent IQR "
        f"{_format(summary['parent_iqr'])} -> "
        f"{'resolved' if summary['resolved'] else 'not resolved'}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
