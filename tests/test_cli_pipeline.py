"""Differential equivalence suite for the ``repro`` CLI.

Pipelines run as **real subprocess pipes** (``bash -o pipefail``), and
their NDJSON output is asserted bit-for-bit equal to an in-process
:class:`~repro.api.service.AnalysisService` answering the same batch
through the same record-emission layer -- the canonical encoding in
:mod:`repro.cli.records` makes "same records" the same bytes.

The suite also pins the process-level contracts: ``... | head`` exits 0
with no traceback, malformed input produces the documented ``error``
record and exit 65, errors propagate through downstream stages with
their original exit code, and a ``--url`` pipeline against a live
``repro.serve`` tier emits byte-identical result records.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api.service import AnalysisService
from repro.catalog import CatalogBuilder, CatalogSpec
from repro.cli.records import dump_record
from repro.cli.session_io import (
    meta_record,
    mutation_record,
    profile_records,
    receipt_record,
)
from repro.cli.stream_query import QuerySpec, records_for
from repro.dynamic.churn import MutationStream
from repro.utils.serialization import mutation_from_dict, mutation_to_dict

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).parent / "fixtures"

SERVICES = 25
SEED = 2021


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


def _pipeline(command: str, stdin: str = "") -> subprocess.CompletedProcess:
    """Run one shell pipeline under ``pipefail`` with the repo on path."""
    return subprocess.run(
        ["bash", "-o", "pipefail", "-c", command],
        input=stdin,
        capture_output=True,
        text=True,
        env=_env(),
        cwd=str(REPO_ROOT),
        timeout=300,
    )


def _repro(*args: str) -> str:
    quoted = " ".join(args)
    return f"{sys.executable} -m repro {quoted}".strip()


def _build_ecosystem(services: int = SERVICES, seed: int = SEED):
    return CatalogBuilder(
        CatalogSpec(total_services=services), seed=seed
    ).build_ecosystem()


def _mutation_docs(count: int, services: int = SERVICES, seed: int = 7):
    """``count`` feasible wire mutation documents for the seed ecosystem.

    Drawn by replaying a churn stream through a scratch service, so each
    document is feasible at the point it applies.
    """
    service = AnalysisService(_build_ecosystem(services))
    stream = MutationStream(seed)
    documents = []
    while len(documents) < count:
        mutation = stream.next_mutation(service.ecosystem)
        service.apply(mutation)
        documents.append(mutation_to_dict(mutation))
    return documents


def _reference_service(mutations=()):
    """The in-process side of the differential: same base, same log.

    Mutations round-trip through the wire codec first --
    ``apply_hardening`` encodes by defense *name*, so both sides must
    consume the decoded spelling for the comparison to be fair.
    """
    service = AnalysisService(_build_ecosystem())
    for document in mutations:
        service.apply(mutation_from_dict(document))
    return service


def _reference_records(service, specs):
    text = []
    for spec in specs:
        for record in records_for(service, spec):
            text.append(dump_record(record))
    return "".join(text)


def _script_file(tmp_path, documents, name="script.ndjson"):
    path = tmp_path / name
    path.write_text(
        "".join(json.dumps(doc) + "\n" for doc in documents),
        encoding="utf-8",
    )
    return path


# ----------------------------------------------------------------------
# Differential equivalence
# ----------------------------------------------------------------------


class TestBuildMatchesInProcess:
    def test_build_emits_meta_then_profile_records_bit_for_bit(self):
        result = _pipeline(_repro("build", "--services", str(SERVICES)))
        assert result.returncode == 0, result.stderr
        expected = [meta_record(services=SERVICES, seed=SEED, version=0)]
        expected.extend(profile_records(_build_ecosystem()))
        assert result.stdout == "".join(
            dump_record(record) for record in expected
        )

    def test_build_round_trips_through_a_downstream_stage(self):
        """A consumer rebuilding from profile records reproduces the
        catalog exactly (names and enumeration order included)."""
        result = _pipeline(
            _repro("build", "--services", str(SERVICES))
            + " | "
            + _repro("query", "--kind", "levels")
        )
        assert result.returncode == 0, result.stderr
        service = _reference_service()
        assert result.stdout == _reference_records(
            service, [QuerySpec(kind="levels")]
        )


class TestPipelineMatchesInProcess:
    def test_three_stage_pipe_equals_in_process_batch(self, tmp_path):
        mutations = _mutation_docs(4)
        script = _script_file(tmp_path, mutations)
        command = (
            _repro("build", "--services", str(SERVICES))
            + " | "
            + _repro("mutate", "--script", str(script))
            + " | "
            + _repro(
                "query",
                "--kind", "couples",
                "--kind", "weak-edges",
                "--kind", "levels",
                "--page-size", "32",
            )
        )
        result = _pipeline(command)
        assert result.returncode == 0, result.stderr

        service = _reference_service(mutations)
        specs = [
            QuerySpec(kind="couples", page_size=32),
            QuerySpec(kind="weak-edges", page_size=32),
            QuerySpec(kind="levels"),
        ]
        assert result.stdout == _reference_records(service, specs)

    def test_mutate_stages_chain_and_forward_the_log(self, tmp_path):
        """Two mutate stages append to one log; the downstream query
        sees the composed session (version = total mutations)."""
        mutations = _mutation_docs(4)
        first = _script_file(tmp_path, mutations[:2], "first.ndjson")
        second = _script_file(tmp_path, mutations[2:], "second.ndjson")
        command = (
            _repro("build", "--services", str(SERVICES))
            + " | "
            + _repro("mutate", "--script", str(first))
            + " | "
            + _repro("mutate", "--script", str(second))
            + " | "
            + _repro("query", "--kind", "measurement")
        )
        result = _pipeline(command)
        assert result.returncode == 0, result.stderr
        service = _reference_service(mutations)
        assert service.version == len(mutations)
        assert result.stdout == _reference_records(
            service, [QuerySpec(kind="measurement")]
        )

    def test_mutate_emits_the_same_receipts_as_the_live_session(
        self, tmp_path
    ):
        mutations = _mutation_docs(3)
        script = _script_file(tmp_path, mutations)
        command = (
            _repro("build", "--services", str(SERVICES))
            + " | "
            + _repro("mutate", "--script", str(script))
        )
        result = _pipeline(command)
        assert result.returncode == 0, result.stderr

        expected = [meta_record(services=SERVICES, seed=SEED, version=0)]
        expected.extend(profile_records(_build_ecosystem()))
        service = AnalysisService(_build_ecosystem())
        for document in mutations:
            receipt = service.apply(mutation_from_dict(document))
            expected.append(mutation_record(document))
            expected.append(receipt_record(document, receipt))
        assert result.stdout == "".join(
            dump_record(record) for record in expected
        )

    def test_closure_query_matches_in_process(self):
        command = (
            _repro("build", "--services", str(SERVICES))
            + " | "
            + _repro(
                "query",
                "--kind", "closure",
                "--compromised", "alipay",
                "--email-provider", "gmail",
            )
        )
        result = _pipeline(command)
        assert result.returncode == 0, result.stderr
        spec = QuerySpec(
            kind="closure",
            compromised=("alipay",),
            email_provider="gmail",
        )
        assert result.stdout == _reference_records(
            _reference_service(), [spec]
        )


class TestPaginationAcrossMutation:
    def test_cursor_resumes_across_a_midstream_mutation(self, tmp_path):
        """Drain a page, mutate, resume from the watermark token: the
        piped run and the in-process session agree byte for byte."""
        first = _pipeline(
            _repro("build", "--services", str(SERVICES))
            + " | "
            + _repro(
                "query",
                "--kind", "couples",
                "--page-size", "8",
                "--max-records", "16",
            )
        )
        assert first.returncode == 0, first.stderr
        lines = first.stdout.splitlines()
        trailer = json.loads(lines[-1])
        assert trailer["kind"] == "cursor"
        token = trailer["data"]["next"]
        assert token, "the 25-service couple stream must not fit 16 records"

        mutations = _mutation_docs(2)
        script = _script_file(tmp_path, mutations)
        resumed = _pipeline(
            _repro("build", "--services", str(SERVICES))
            + " | "
            + _repro("mutate", "--script", str(script))
            + " | "
            + _repro(
                "query",
                "--kind", "couples",
                "--page-size", "8",
                "--cursor", token,
            )
        )
        assert resumed.returncode == 0, resumed.stderr

        # In-process: drain the same prefix, apply the same mutations,
        # resume from the same watermark.
        service = _reference_service()
        prefix = _reference_records(
            service,
            [QuerySpec(kind="couples", page_size=8, max_records=16)],
        )
        assert first.stdout == prefix
        for document in mutations:
            service.apply(mutation_from_dict(document))
        continuation = _reference_records(
            service, [QuerySpec(kind="couples", page_size=8, cursor=token)]
        )
        assert resumed.stdout == continuation

        # The resumed stream continues, never rewinds: no couple record
        # is emitted by both halves.
        def couples(text):
            return {
                line
                for line in text.splitlines()
                if json.loads(line)["kind"] == "couple"
            }

        assert not couples(first.stdout) & couples(resumed.stdout)


# ----------------------------------------------------------------------
# Process contracts
# ----------------------------------------------------------------------


class TestSigpipeContract:
    def test_head_truncation_exits_zero_upstream(self):
        result = _pipeline(
            _repro("build", "--services", "201")
            + ' | head -1 > /dev/null; exit "${PIPESTATUS[0]}"'
        )
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr
        assert "BrokenPipeError" not in result.stderr

    def test_head_truncation_of_a_query_stream_exits_zero(self):
        command = (
            _repro("build", "--services", str(SERVICES))
            + " | "
            + _repro("query", "--kind", "couples", "--page-size", "8")
            + ' | head -1 > /dev/null; exit "${PIPESTATUS[1]}"'
        )
        result = _pipeline(command)
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr


class TestStartupImports:
    def test_cli_import_leaves_networkx_unloaded(self):
        # Only the Fig. 4 export helpers need networkx; CLI start-up must
        # not pay for importing it.
        result = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro.cli.main; "
                "print('networkx' in sys.modules)",
            ],
            capture_output=True,
            text=True,
            env=_env(),
            timeout=60,
            check=True,
        )
        assert result.stdout.strip() == "False"


class TestErrorContract:
    def test_malformed_input_yields_error_record_and_exit_65(self):
        result = _pipeline(_repro("query", "--kind", "levels"), stdin="{not json}\n")
        assert result.returncode == 65
        record = json.loads(result.stdout.splitlines()[-1])
        assert record["kind"] == "error"
        assert record["data"]["code"] == "not-json"
        assert record["data"]["exit"] == 65
        assert record["data"]["line"] == 1

    def test_unknown_mutation_kind_is_rejected_with_exit_65(self):
        stdin = dump_record(
            {"kind": "mutation", "data": {"kind": "warp_reality"}}
        )
        result = _pipeline(_repro("mutate"), stdin=stdin)
        assert result.returncode == 65
        record = json.loads(result.stdout.splitlines()[-1])
        assert record["data"]["code"] == "bad-mutation"

    def test_error_records_propagate_downstream_with_their_exit(self):
        """A failing stage's error record flows through mutate and is
        re-raised with the original code -- failures never vanish
        mid-pipeline."""
        command = (
            _repro("query", "--kind", "levels")
            + " | "
            + _repro("mutate")
            + ' ; exit "${PIPESTATUS[1]}"'
        )
        result = _pipeline(command, stdin="garbage\n")
        assert result.returncode == 65
        records = [json.loads(line) for line in result.stdout.splitlines()]
        errors = [r for r in records if r["kind"] == "error"]
        assert len(errors) == 2  # forwarded verbatim + none swallowed
        assert errors[0] == errors[1]

    def test_usage_errors_exit_2(self):
        result = _pipeline(_repro("query", "--kind", "nonsense"))
        assert result.returncode == 2

    def test_unreachable_url_exits_69(self):
        result = _pipeline(
            _repro(
                "query",
                "--kind", "levels",
                "--url", "http://127.0.0.1:1",
            )
        )
        assert result.returncode == 69
        record = json.loads(result.stdout.splitlines()[-1])
        assert record["data"]["code"] == "unreachable"
        assert record["data"]["exit"] == 69


# ----------------------------------------------------------------------
# Remote parity
# ----------------------------------------------------------------------


class TestRemoteParity:
    @pytest.fixture()
    def server(self):
        from repro.serve.server import AnalysisServer

        server = AnalysisServer()
        server.start()
        try:
            yield server
        finally:
            server.stop()

    def test_url_pipeline_result_records_match_local(self, server, tmp_path):
        """The same pipeline against a live serving tier emits the same
        result-record bytes: one record schema, two transports."""
        mutations = _mutation_docs(3)
        script = _script_file(tmp_path, mutations)
        query = _repro(
            "query",
            "--kind", "couples",
            "--kind", "levels",
            "--page-size", "32",
        )
        remote = _pipeline(
            _repro(
                "build",
                "--services", str(SERVICES),
                "--url", server.url,
                "--session", "parity",
            )
            + " | "
            + _repro("mutate", "--script", str(script))
            + " | "
            + query
        )
        assert remote.returncode == 0, remote.stderr
        local = _pipeline(
            _repro("build", "--services", str(SERVICES))
            + " | "
            + _repro("mutate", "--script", str(script))
            + " | "
            + query
        )
        assert local.returncode == 0, local.stderr
        assert remote.stdout == local.stdout

    def test_remote_build_emits_only_the_proxy_meta(self, server):
        result = _pipeline(
            _repro(
                "build",
                "--services", str(SERVICES),
                "--url", server.url,
                "--session", "meta-only",
            )
        )
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert len(lines) == 1
        meta = json.loads(lines[0])
        assert meta["kind"] == "meta"
        assert meta["data"]["remote"]["url"] == server.url
        assert meta["data"]["remote"]["session"] == "meta-only"


# ----------------------------------------------------------------------
# Golden fixtures (regenerate with tools/make_golden_cli.py)
# ----------------------------------------------------------------------


GOLDEN_SPECS = {
    "golden_cli_couples.ndjson": QuerySpec(
        kind="couples", page_size=32, max_records=64
    ),
    "golden_cli_weak_edges.ndjson": QuerySpec(
        kind="weak-edges", page_size=32, max_records=64
    ),
    "golden_cli_levels.ndjson": QuerySpec(kind="levels"),
}


class TestGoldenFixtures:
    @pytest.fixture(scope="class")
    def seed_service(self):
        return AnalysisService(_build_ecosystem(services=201))

    @pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
    def test_seed_ecosystem_records_match_golden_bytes(
        self, seed_service, name
    ):
        golden = (FIXTURES / name).read_text(encoding="utf-8")
        produced = _reference_records(seed_service, [GOLDEN_SPECS[name]])
        assert produced == golden, (
            f"{name} drifted; regenerate with tools/make_golden_cli.py "
            "if the change is intentional"
        )

    def test_golden_couples_match_the_piped_cli(self):
        """One golden is also checked through the real subprocess pipe,
        so the fixtures pin the CLI surface, not just the library."""
        result = _pipeline(
            _repro("build")
            + " | "
            + _repro(
                "query",
                "--kind", "couples",
                "--page-size", "32",
                "--max-records", "64",
            )
        )
        assert result.returncode == 0, result.stderr
        golden = (FIXTURES / "golden_cli_couples.ndjson").read_text(
            encoding="utf-8"
        )
        assert result.stdout == golden
