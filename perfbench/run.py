"""The benchmark's one command.

    python3 perfbench/run.py --workload churn_reserve --seed 1 --seconds 15 --trace 0

Runs one workload from seeded inputs against the program under ``src/``,
checks its answers, prints a report (every end-to-end figure with its
unit and sample count; with ``--trace 1`` the per-layer figures instead)
and, as the last line, one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Workloads, metrics and the layer -> end-to-end
predictions are described in ``perfbench/README.md``.

The process re-executes itself once with ``PYTHONHASHSEED`` pinned (see
:data:`harness.HASH_SEED`) and ``src`` on the path.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import harness
import tracing

WORKLOADS = ("cold_start", "churn_reserve", "stream_churn", "http_tenant")

#: Every workload's result line carries these three (untraced runs).
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "serve_p50_ms": "ms"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--toy", action="store_true",
        help="toy catalog sizes (the harness self-test)",
    )
    parser.add_argument(
        "--corrupt", action="store_true",
        help="tamper with one answer before it is checked (self-test)",
    )
    parser.add_argument(
        "--cold-child", action="store_true", help=argparse.SUPPRESS
    )
    parser.add_argument("--services", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and not args.cold_child:
        parser.error("--workload is required")
    return args


def _run(args):
    import workloads

    if args.workload == "http_tenant":
        import http_tenant

        return http_tenant.run(
            args.seed, args.seconds, bool(args.trace), args.toy, args.corrupt
        )
    workload = getattr(workloads, args.workload)
    return workload(
        args.seed, args.seconds, bool(args.trace), args.toy, args.corrupt
    )


def _format(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _report(args, outcome) -> None:
    stamp = harness.stamp(
        args.workload, args.seed, outcome.services, bool(args.trace)
    )
    print(f"# {args.workload}: {json.dumps(stamp, sort_keys=True)}")
    checks = outcome.checks
    failed_share = checks.failed_share
    rows = [(m.name, m.value, m.unit, m.samples, m.note)
            for m in outcome.metrics]
    rows.append(("failed_share", failed_share, "ratio", checks.attempted,
                 f"{checks.failed} of {checks.attempted} checks failed"))
    if not args.trace:
        print("# end-to-end, as measured (metric, value, unit, samples, note)")
        for name, value, unit, samples, note in rows:
            print(f"  {name:<30} {_format(value):>12} {unit:<6} "
                  f"n={samples:<5} {note}")
        print("# result-line figures")
        serve_note = (
            "rescaled to the reference speed per sample"
            if outcome.serve_rescaled else "as measured"
        )
        for name, value, note in (
            ("setup_s", outcome.setup_s, "as measured"),
            ("peak_rss_mb", outcome.peak_rss_mb, "as measured"),
            ("serve_p50_ms", outcome.serve_p50_ms,
             f"{serve_note}, n={outcome.serve_samples}"),
        ):
            print(f"  {name:<30} {_format(value):>12} "
                  f"{END_TO_END_UNITS[name]:<6} {note}")
    for note in checks.notes:
        print(f"# FAILED: {note}")
    if args.trace:
        print(f"# per layer, per measured unit ({outcome.units} units)")
        units = tracing.per_layer_units()
        for name, value in outcome.layers.items():
            print(f"  {name:<38} {_format(value):>12} {units[name]}")
        print("# spans (name, outermost calls, inclusive s, self s)")
        for name, row in sorted(outcome.span_table.items()):
            print(f"  {name:<22} {int(row['calls']):>8} "
                  f"{row['seconds']:>12.6f} {row['self_seconds']:>12.6f}")
        for line in outcome.extras.get("answers", ()):
            print(f"# {line}")
        if outcome.extras.get("missing_targets"):
            print(f"# unwrapped (not found): "
                  f"{outcome.extras['missing_targets']}")

    record = {
        "stamp": stamp,
        "end_to_end": {m.name: m.to_dict() for m in outcome.metrics},
        "failed_share": failed_share,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.notes,
        "extras": {k: v for k, v in outcome.extras.items()},
    }
    if args.trace:
        record["per_layer"] = outcome.layers
        record["spans"] = outcome.span_table
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    harness.write_result(f"{name}.json", record)
    if outcome.span_log is not None:
        harness.RESULTS_DIR.mkdir(exist_ok=True)
        outcome.span_log.write(harness.RESULTS_DIR / f"{name}.spans.ndjson")


def _result_line(args, outcome) -> str:
    if args.trace:
        units = tracing.per_layer_units()
        metrics = {
            name: {"value": outcome.layers[name], "unit": unit}
            for name, unit in units.items()
        }
    else:
        values = {
            "setup_s": outcome.setup_s,
            "peak_rss_mb": outcome.peak_rss_mb,
            "serve_p50_ms": outcome.serve_p50_ms,
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    checks = outcome.checks
    return json.dumps(
        {
            "correct": checks.failed == 0 and checks.attempted > 0,
            "attempted": max(checks.attempted, 1),
            "failed": checks.failed,
            "metrics": metrics,
        }
    )


def main(argv) -> int:
    args = _parse(argv)
    if not (harness.ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program to measure: {harness.ROOT / 'src' / 'repro'}"
            " is missing (run from a checkout of the repository)",
            file=sys.stderr,
        )
        return 2
    if os.environ.get("PYTHONHASHSEED") != harness.HASH_SEED:
        sys.stdout.flush()
        os.execve(
            sys.executable,
            [sys.executable, os.path.abspath(__file__), *argv],
            harness.python_env(),
        )
    if args.cold_child:
        import workloads

        record = workloads.cold_child(
            args.services, bool(args.trace), args.corrupt
        )
        print(json.dumps(record))
        return 0
    outcome = _run(args)
    _report(args, outcome)
    print(_result_line(args, outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
