"""Shared pieces of the benchmark: statistics, stamps, result checks.

Nothing here imports ``repro``; the workload modules do, after
``run.py`` has put ``src`` on the path and pinned the hash seed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = pathlib.Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR / "results"

#: ``MutationStream`` draws from frozensets (``_change_masking`` iterates
#: ``profile.platforms``), so its sequence depends on the hash seed.  Every
#: workload process runs under this one value, so two runs with the same
#: ``--seed`` replay the same churn.
HASH_SEED = "0"

#: The audited catalog is the repository's standard synthetic catalog;
#: ``--seed`` drives the churn and the request mix drawn against it.
CATALOG_SEED = 2021

#: What :func:`reference_loop` takes, in ms, on the machine the bounds in
#: ``BENCHMARK.json`` were set on (2-core VM, Python 3.11) when it is
#: quiet.  Per-cycle re-serve times are reported rescaled to this speed;
#: see :class:`Speed`.
REFERENCE_MS = 2.2

#: Percentiles tried, highest first, when resolving a tail.
_TAIL_LADDER = (0.999, 0.99, 0.95, 0.9, 0.8, 0.75, 0.5)
_TAIL_MIN_BEYOND = 10


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (which must be non-empty)."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def tail(samples: Sequence[float]) -> Tuple[Optional[str], Optional[float]]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(label, value)``, e.g. ``("p90", 12.5)``, or ``(None, None)``
    when there are too few samples for any percentile to qualify.
    """
    count = len(samples)
    for fraction in _TAIL_LADDER:
        beyond = count - max(1, math.ceil(fraction * count))
        if beyond >= _TAIL_MIN_BEYOND:
            label = f"p{fraction * 100:g}"
            return label, percentile(samples, fraction)
    return None, None


class Metric:
    """One reported figure: value, unit and the samples behind it."""

    __slots__ = ("name", "value", "unit", "samples", "note")

    def __init__(
        self,
        name: str,
        value: Optional[float],
        unit: str,
        samples: int,
        note: str = "",
    ) -> None:
        self.name = name
        self.value = value
        self.unit = unit
        self.samples = samples
        self.note = note

    def to_dict(self) -> Dict[str, Any]:
        entry: Dict[str, Any] = {
            "value": self.value,
            "unit": self.unit,
            "samples": self.samples,
        }
        if self.note:
            entry["note"] = self.note
        return entry


def timing_metrics(prefix: str, seconds: Sequence[float]) -> List[Metric]:
    """``<prefix>_p50_ms`` and ``<prefix>_tail_ms`` of a sample."""
    values = [value * 1e3 for value in seconds]
    if not values:
        return [
            Metric(f"{prefix}_p50_ms", None, "ms", 0, "no samples"),
            Metric(f"{prefix}_tail_ms", None, "ms", 0, "no samples"),
        ]
    label, tail_value = tail(values)
    return [
        Metric(f"{prefix}_p50_ms", statistics.median(values), "ms",
               len(values)),
        Metric(
            f"{prefix}_tail_ms",
            tail_value,
            "ms",
            len(values),
            label or f"unresolved: fewer than {_TAIL_MIN_BEYOND} samples "
            "beyond any percentile",
        ),
    ]


def reference_loop() -> int:
    """A fixed slice of pure-Python work (dict, set, tuple, int and call
    traffic, like the engines' own) used to gauge machine speed."""
    table: Dict[int, Tuple[int, int]] = {}
    seen = set()
    total = 0
    for index in range(12000):
        key = index % 257
        table[key] = (index, total)
        seen.add(key ^ (index & 31))
        total += len(table[key]) + (index * 7) % 13
    return total + len(seen)


class Speed:
    """Machine speed, sampled by timing :func:`reference_loop` right after
    each short operation it rescales.

    The CPU this benchmark is tuned on runs the same work 20-30% slower
    or faster from one half-minute to the next.  A reference loop timed
    right after a ~50 ms operation slows down with it, so
    ``seconds * REFERENCE_MS / reference`` is the time the operation
    would have taken at the reference speed.  This does not carry over
    to operations of a second or more (the speed changes within them),
    which are reported as measured.  The report prints the raw wall
    times next to the rescaled median.
    """

    @staticmethod
    def sample() -> float:
        """Seconds one reference loop takes now.  The collector is off
        while it runs: a collection would scan the workload's heap, and
        the loop must time the CPU, not the heap's size."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            reference_loop()
            return time.perf_counter() - started
        finally:
            if enabled:
                gc.enable()

    @staticmethod
    def rescale(seconds: float, reference: float) -> float:
        """``seconds`` measured while the loop took ``reference`` seconds,
        at the reference speed."""
        return seconds * (REFERENCE_MS / 1e3) / reference


def peak_rss_mb() -> float:
    """This process's peak resident set size, in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def canonical(document: Any) -> str:
    """Byte-stable JSON text of a wire document (the equality we check)."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def strip_keys(document: Any, keys: Sequence[str]) -> Any:
    """``document`` with the named keys removed at every depth."""
    if isinstance(document, dict):
        return {
            key: strip_keys(value, keys)
            for key, value in document.items()
            if key not in keys
        }
    if isinstance(document, list):
        return [strip_keys(value, keys) for value in document]
    return document


def git_sha() -> Optional[str]:
    """HEAD of the checkout, or ``None`` where it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = completed.stdout.strip()
    return sha if completed.returncode == 0 and sha else None


def source_digest() -> str:
    """SHA-256 over ``src/`` (path + bytes), identifying the code measured
    even in a checkout without git metadata."""
    digest = hashlib.sha256()
    source = ROOT / "src"
    for path in sorted(source.rglob("*.py")):
        digest.update(str(path.relative_to(source)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def stamp(workload: str, seed: int, services: int, trace: bool) -> Dict:
    """Where and on what a result was measured."""
    return {
        "workload": workload,
        "workload_seed": seed,
        "catalog_seed": CATALOG_SEED,
        "services": services,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
    }


class Checks:
    """Counts answers compared against a reference and the mismatches."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def compare(self, what: str, got: Any, expected: Any) -> bool:
        self.attempted += 1
        if got == expected:
            return True
        self.fail(what)
        return False

    def expect(self, what: str, condition: bool) -> bool:
        self.attempted += 1
        if condition:
            return True
        self.fail(what)
        return False

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(what)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def write_result(name: str, document: Dict[str, Any]) -> pathlib.Path:
    """Persist one run's full record under ``perfbench/results``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def python_env() -> Dict[str, str]:
    """Environment for a workload child process: ``src`` importable and
    the hash seed pinned."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def child_command(script: str, *args: str) -> List[str]:
    return [sys.executable, str(BENCH_DIR / script), *args]
