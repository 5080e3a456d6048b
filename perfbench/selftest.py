"""Fast self-test of the benchmark harness, at toy catalog sizes.

    python3 perfbench/selftest.py

For every workload, in both trace modes: the result line has exactly the
four contract keys, every metric ``BENCHMARK.json`` names is emitted with
its unit (and nothing else), and the report stamps every end-to-end
figure with a unit and a sample count.  A run with one answer tampered
with must come back ``correct: false`` with at least one failure, and
the command must fail, without a result line, where ``src`` is absent.
Also checks that ``predictions.json`` cites only metrics that exist.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from typing import List

import harness
import run

SEED = 7
SECONDS = "1"


def _invoke(*args: str, cwd=harness.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _result_line(completed) -> dict:
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise AssertionError(
            f"exit {completed.returncode}: {completed.stderr[-800:]}"
        )
    return json.loads(lines[-1])


def _check_line(problems: List[str], label: str, line: dict, expected) -> None:
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(line)}")
        return
    emitted = {
        name: entry.get("unit") for name, entry in line["metrics"].items()
    }
    if emitted != expected:
        problems.append(f"{label}: metrics/units differ from BENCHMARK.json")
    for name, entry in line["metrics"].items():
        if not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{label}: {name} has no numeric value")
    if not (isinstance(line["attempted"], int) and line["attempted"] >= 1):
        problems.append(f"{label}: attempted {line['attempted']!r}")


def main() -> int:
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems: List[str] = []
    if end_to_end != run.END_TO_END_UNITS:
        problems.append("BENCHMARK.json end_to_end != run.END_TO_END_UNITS")
    report_names = {"failed_share"}

    for workload in run.WORKLOADS:
        common = ("--workload", workload, "--seed", str(SEED),
                  "--seconds", SECONDS, "--toy")
        for trace, expected in (("0", end_to_end), ("1", per_layer)):
            label = f"{workload} trace {trace}"
            try:
                line = _result_line(_invoke(*common, "--trace", trace))
            except AssertionError as exc:
                problems.append(f"{label}: {exc}")
                continue
            _check_line(problems, label, line, expected)
            if not line.get("correct"):
                problems.append(f"{label}: answers judged wrong")
        record = json.loads(
            (harness.RESULTS_DIR /
             f"{workload}-seed{SEED}-trace0.json").read_text()
        )
        for name, entry in record["end_to_end"].items():
            report_names.add(name)
            if not entry.get("unit") or not isinstance(
                entry.get("samples"), int
            ):
                problems.append(f"{workload}: {name} lacks unit or samples")
        try:
            tampered = _result_line(
                _invoke(*common, "--trace", "0", "--corrupt")
            )
        except AssertionError as exc:
            problems.append(f"{workload} --corrupt: {exc}")
            continue
        if tampered["correct"] or tampered["failed"] < 1:
            problems.append(f"{workload}: a corrupted answer went unnoticed")

    predictions = json.loads(
        (harness.BENCH_DIR / "predictions.json").read_text()
    )["predictions"]
    for entry in predictions:
        if entry["layer"] not in per_layer:
            problems.append(f"prediction cites unknown layer {entry['layer']}")
        if entry["moves"] not in report_names:
            problems.append(f"prediction cites unknown metric {entry['moves']}")
        if entry["on"] not in run.WORKLOADS:
            problems.append(f"prediction cites unknown workload {entry['on']}")

    # Without the program next to it, the command must refuse to run.
    bare = harness.RESULTS_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(
        harness.BENCH_DIR, bare / "perfbench",
        ignore=shutil.ignore_patterns("results", "__pycache__"),
    )
    shutil.copy(harness.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    completed = _invoke(
        "--workload", "churn_reserve", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=bare,
    )
    if completed.returncode == 0 or completed.stdout.strip():
        problems.append("a checkout without src/ still produced a result")
    shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
