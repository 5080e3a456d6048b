"""The in-repo AST linter (tools/lint.py) and the repo-wide clean gate.

No third-party linter ships in the repro environment, so ``make verify``
and this test both run ``tools/lint.py`` -- dead locals and unused
imports fail tier-1.
"""

from __future__ import annotations

import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import lint  # noqa: E402


def _codes(source):
    return [f.code for f in lint.check_source(textwrap.dedent(source))]


class TestUnusedLocal:
    def test_flags_dead_assignment(self):
        findings = lint.check_source(
            textwrap.dedent(
                """
                def f(tdg):
                    attacker = tdg.attacker
                    return tdg.nodes
                """
            )
        )
        assert [f.code for f in findings] == ["unused-local"]
        assert "attacker" in findings[0].message
        assert findings[0].line == 3

    def test_used_assignment_is_clean(self):
        assert _codes(
            """
            def f(tdg):
                attacker = tdg.attacker
                return attacker
            """
        ) == []

    def test_use_in_nested_scope_counts(self):
        assert _codes(
            """
            def f(tdg):
                attacker = tdg.attacker
                return lambda: attacker
            """
        ) == []

    def test_underscore_loop_targets_and_unpacking_are_exempt(self):
        assert _codes(
            """
            def f(pairs):
                _scratch = object()
                total = 0
                for unused, value in pairs:
                    total += value
                return total
            """
        ) == []

    def test_flags_dead_with_and_except_bindings(self):
        assert _codes(
            """
            def f(cm):
                with cm() as handle:
                    pass
                try:
                    pass
                except ValueError as exc:
                    return None
            """
        ) == ["unused-local", "unused-local"]

    def test_noqa_suppresses(self):
        assert _codes(
            """
            def f(tdg):
                attacker = tdg.attacker  # noqa
                return tdg.nodes
            """
        ) == []

    def test_dynamic_scope_disables_the_check(self):
        assert _codes(
            """
            def f(tdg):
                attacker = tdg.attacker
                return locals()
            """
        ) == []


class TestUnusedImport:
    def test_flags_unused_import(self):
        findings = lint.check_source(
            "import os\nimport sys\n\nprint(sys.argv)\n"
        )
        assert [f.code for f in findings] == ["unused-import"]
        assert "os" in findings[0].message

    def test_from_import_and_alias(self):
        assert _codes("from typing import List, Optional\nx: List = []\n") == [
            "unused-import"
        ]
        assert _codes("import numpy as np\nprint(np)\n") == []

    def test_reexport_all_and_type_checking_are_exempt(self):
        assert _codes("from repro import thing as thing\n") == []
        assert _codes(
            """
            from repro import thing

            __all__ = ["thing"]
            """
        ) == []
        assert _codes(
            """
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from repro import OnlyForAnnotations

            def f(x: "OnlyForAnnotations"):
                return x
            """
        ) == []

    def test_future_import_is_exempt(self):
        assert _codes("from __future__ import annotations\n") == []


class TestRawTiming:
    SOURCE = """
        import time

        def f():
            start = time.perf_counter()
            return time.time() - start
        """

    def test_flags_raw_clock_calls_in_engine_code(self):
        findings = lint.check_source(
            textwrap.dedent(self.SOURCE), path="src/repro/levels/engine.py"
        )
        assert [f.code for f in findings] == ["raw-timing", "raw-timing"]
        assert "time.perf_counter" in findings[0].message
        assert "repro.obs" in findings[0].message

    def test_flags_bare_perf_counter_import_form(self):
        findings = lint.check_source(
            textwrap.dedent(
                """
                from time import perf_counter

                def f():
                    return perf_counter()
                """
            ),
            path="src/repro/dynamic/churn.py",
        )
        assert [f.code for f in findings] == ["raw-timing"]

    def test_obs_package_and_non_src_paths_are_exempt(self):
        source = textwrap.dedent(self.SOURCE)
        assert lint.check_source(source, path="src/repro/obs/trace.py") == []
        assert lint.check_source(source, path="tests/test_perf.py") == []
        assert lint.check_source(source, path="benchmarks/bench.py") == []

    def test_sanctioned_clock_is_clean(self):
        assert lint.check_source(
            textwrap.dedent(
                """
                from repro.obs import monotonic

                def f():
                    return monotonic()
                """
            ),
            path="src/repro/dynamic/churn.py",
        ) == []

    def test_noqa_suppresses(self):
        findings = lint.check_source(
            textwrap.dedent(
                """
                import time

                def f():
                    return time.perf_counter()  # noqa: raw timing on purpose
                """
            ),
            path="src/repro/core/tdg.py",
        )
        assert findings == []


class TestObjectPosting:
    def test_flags_name_collection_dict_in_hot_module(self):
        source = textwrap.dedent(
            """
            from typing import Dict, FrozenSet

            class Index:
                def __init__(self):
                    self._demanders: Dict[str, FrozenSet[str]] = {}
            """
        )
        findings = lint.check_source(
            source, path="src/repro/core/index.py"
        )
        assert [f.code for f in findings] == ["object-posting"]

    def test_decoded_view_marker_and_noqa_suppress(self):
        source = textwrap.dedent(
            """
            from typing import Dict, FrozenSet

            class Index:
                def __init__(self):
                    self._views: Dict[str, FrozenSet[str]] = {}  # decoded view
                    self._odd: Dict[str, FrozenSet[str]] = {}  # noqa
            """
        )
        assert lint.check_source(
            source, path="src/repro/levels/parents.py"
        ) == []

    def test_mask_postings_and_key_position_names_are_clean(self):
        source = textwrap.dedent(
            """
            from typing import Dict, Optional, Tuple

            class Engine:
                def __init__(self):
                    self._children: Dict[str, int] = {}
                    self._memo: Dict[Tuple[str, Optional[int]], Tuple[int, ...]] = {}
            """
        )
        assert lint.check_source(
            source, path="src/repro/levels/engine.py"
        ) == []

    def test_rule_only_covers_hot_modules(self):
        source = textwrap.dedent(
            """
            from typing import Dict, FrozenSet

            class Other:
                def __init__(self):
                    self._postings: Dict[str, FrozenSet[str]] = {}
            """
        )
        assert lint.check_source(
            source, path="src/repro/core/tdg.py"
        ) == []


class TestSwallowedException:
    SERVE_PATH = "src/repro/serve/shard.py"

    def test_flags_pass_only_handler_in_serve_layer(self):
        source = textwrap.dedent(
            """
            def handle(request):
                try:
                    apply(request)
                except Exception:
                    pass
            """
        )
        findings = lint.check_source(source, path=self.SERVE_PATH)
        assert [f.code for f in findings] == ["swallowed-exception"]

    def test_flags_ellipsis_and_docstring_only_bodies(self):
        source = textwrap.dedent(
            """
            def handle(request):
                try:
                    apply(request)
                except ValueError:
                    ...
                except KeyError:
                    "deliberately ignored"
            """
        )
        findings = lint.check_source(source, path=self.SERVE_PATH)
        assert [f.code for f in findings] == [
            "swallowed-exception",
            "swallowed-exception",
        ]

    def test_handler_that_reports_is_clean(self):
        source = textwrap.dedent(
            """
            def handle(request, audit, reply):
                try:
                    apply(request)
                except ValueError as exc:
                    audit.record("rejected", error=str(exc))
                except Exception as exc:
                    reply.fail(exc)
                    raise
            """
        )
        assert lint.check_source(source, path=self.SERVE_PATH) == []

    def test_rule_only_covers_serve_layer_and_noqa_suppresses(self):
        swallow = textwrap.dedent(
            """
            def probe(value):
                try:
                    coerce(value)
                except TypeError:
                    pass
            """
        )
        assert (
            lint.check_source(swallow, path="src/repro/core/tdg.py") == []
        )
        suppressed = textwrap.dedent(
            """
            def probe(value):
                try:
                    coerce(value)
                except TypeError:  # noqa: best-effort probe
                    pass
            """
        )
        assert (
            lint.check_source(suppressed, path=self.SERVE_PATH) == []
        )


class TestBarePrint:
    CLI_PATH = "src/repro/cli/main.py"

    def test_flags_print_in_cli_package(self):
        source = textwrap.dedent(
            """
            def emit(record):
                print(record)
            """
        )
        findings = lint.check_source(source, path=self.CLI_PATH)
        assert [f.code for f in findings] == ["bare-print"]
        assert "RecordWriter" in findings[0].message

    def test_record_writer_and_stderr_are_clean(self):
        source = textwrap.dedent(
            """
            import sys

            def emit(writer, record):
                writer.record(record)
                sys.stderr.write("progress\\n")
            """
        )
        assert lint.check_source(source, path=self.CLI_PATH) == []

    def test_rule_only_covers_the_cli_package(self):
        source = textwrap.dedent(
            """
            def report(rows):
                print(rows)
            """
        )
        assert (
            lint.check_source(source, path="src/repro/core/tdg.py") == []
        )
        assert (
            lint.check_source(source, path="tools/make_golden_cli.py") == []
        )

    def test_noqa_suppresses(self):
        source = textwrap.dedent(
            """
            def debug(record):
                print(record)  # noqa: debugging hook
            """
        )
        assert lint.check_source(source, path=self.CLI_PATH) == []

    def test_shadowed_print_attribute_is_clean(self):
        source = textwrap.dedent(
            """
            def emit(printer, record):
                printer.print(record)
            """
        )
        assert lint.check_source(source, path=self.CLI_PATH) == []


class TestDeprecationShim:
    PACKAGE_PATH = "src/repro/analysis/measurement.py"

    def test_flags_deprecation_warning_in_the_package(self):
        source = textwrap.dedent(
            """
            import warnings

            def run_study(ecosystem):
                warnings.warn("use the facade", DeprecationWarning)
                return measure(ecosystem)
            """
        )
        findings = lint.check_source(source, path=self.PACKAGE_PATH)
        assert [f.code for f in findings] == ["deprecation-shim"]
        assert findings[0].line == 5

    def test_flags_attribute_and_subclass_forms(self):
        source = textwrap.dedent(
            """
            import warnings

            class LegacyWarning(DeprecationWarning):
                pass

            def old(x):
                warnings.warn("old", category=warnings.DeprecationWarning)
                return x
            """
        )
        findings = lint.check_source(source, path=self.PACKAGE_PATH)
        assert [f.code for f in findings] == [
            "deprecation-shim",
            "deprecation-shim",
        ]

    def test_other_warnings_and_paths_outside_the_package_are_clean(self):
        other = textwrap.dedent(
            """
            import warnings

            def lossy(x):
                warnings.warn("rounded", RuntimeWarning)
                return round(x)
            """
        )
        assert lint.check_source(other, path=self.PACKAGE_PATH) == []
        deprecation = textwrap.dedent(
            """
            import warnings

            def test_filter():
                warnings.simplefilter("error", DeprecationWarning)
            """
        )
        for path in ("tests/test_analysis.py", "tools/lint.py"):
            assert lint.check_source(deprecation, path=path) == []

    def test_noqa_suppresses(self):
        source = textwrap.dedent(
            """
            import warnings

            def old(x):
                warnings.warn("old", DeprecationWarning)  # noqa: external
                return x
            """
        )
        assert lint.check_source(source, path=self.PACKAGE_PATH) == []


class TestPrivateInterner:
    PACKAGE_PATH = "src/repro/levels/engine.py"

    def test_flags_interner_outside_the_ecosystem_index(self):
        source = textwrap.dedent(
            """
            from repro.core import ids
            from repro.core.ids import Interner

            class Engine:
                def __init__(self):
                    self._bits = Interner()
                    self._more = ids.Interner(["a"])
            """
        )
        findings = lint.check_source(source, path=self.PACKAGE_PATH)
        assert [f.code for f in findings] == [
            "private-interner",
            "private-interner",
        ]

    def test_index_signatures_and_paths_outside_the_package_are_clean(self):
        source = textwrap.dedent(
            """
            from repro.core.ids import Interner, SignatureInterner

            class Index:
                def __init__(self, names):
                    self.ids = Interner(names)
                    self._sigs = SignatureInterner()
            """
        )
        for path in ("src/repro/core/index.py", "tests/test_ids.py"):
            assert lint.check_source(source, path=path) == []
        signatures = textwrap.dedent(
            """
            from repro.core.ids import SignatureInterner

            SIGNATURES = SignatureInterner()
            """
        )
        assert lint.check_source(signatures, path=self.PACKAGE_PATH) == []


def test_repository_is_lint_clean():
    """The gate ``make verify`` also runs: the whole tree stays clean."""
    targets = [
        REPO_ROOT / name
        for name in lint.DEFAULT_TARGETS
        if (REPO_ROOT / name).exists()
    ]
    findings = lint.check_paths(targets)
    assert findings == [], "\n".join(f.render() for f in findings)
