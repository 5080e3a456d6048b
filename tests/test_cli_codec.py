"""Property/fuzz tests for the CLI's NDJSON record codec.

Hypothesis drives three contracts from :mod:`repro.cli.records` and
:mod:`repro.cli.session_io`:

- **Round-trip**: encode -> parse -> encode is byte-identical for every
  representable record (canonical encoding is a fixpoint).
- **Malformed input is typed**: arbitrary junk lines, truncated
  encodings, and interleaved (concatenated) records never escape as raw
  ``json`` exceptions -- every failure is a :class:`RecordError` with a
  documented code and the exit-65 data-error status.
- **Unknown mutation kinds are rejected without crashing**: the stream
  loader flags them as ``bad-mutation`` and valid records ahead of the
  failure were already processed.

A few subprocess checks pin the same behavior at the process boundary
(error record on stdout + documented exit code).
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli.records import (
    EXIT_DATA,
    RECORD_KINDS,
    RecordError,
    dump_record,
    error_record,
    iter_records,
    parse_record,
)
from repro.cli.session_io import MUTATION_KINDS, load_stream

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Error codes :func:`parse_record` documents; nothing else may escape.
PARSE_ERROR_CODES = {
    "not-json",
    "not-object",
    "missing-kind",
    "unknown-kind",
    "missing-data",
}

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=40),
)

json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=10), children, max_size=4),
    ),
    max_leaves=12,
)

records = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(sorted(RECORD_KINDS)),
        "data": json_values,
    }
)


# ----------------------------------------------------------------------
# Round-trip
# ----------------------------------------------------------------------


class TestRoundTrip:
    @given(record=records)
    def test_encode_parse_encode_is_byte_identical(self, record):
        line = dump_record(record)
        assert dump_record(parse_record(line)) == line

    @given(record=records)
    def test_canonical_lines_are_single_line(self, record):
        line = dump_record(record)
        assert line.endswith("\n")
        assert "\n" not in line[:-1]

    @given(batch=st.lists(records, max_size=8))
    def test_stream_of_records_round_trips_in_order(self, batch):
        text = "".join(dump_record(record) for record in batch)
        parsed = [rec for _line, rec in iter_records(io.StringIO(text))]
        assert parsed == batch

    @given(record=records, data=st.data())
    def test_non_canonical_spellings_normalize_to_the_same_bytes(
        self, record, data
    ):
        """Key order and whitespace never change the canonical form."""
        keys = list(record)
        data.draw(st.randoms()).shuffle(keys)
        loose = json.dumps(
            {key: record[key] for key in keys}, indent=2
        ).replace("\n", " ")
        assert dump_record(parse_record(loose)) == dump_record(record)


# ----------------------------------------------------------------------
# Malformed input
# ----------------------------------------------------------------------


def _expect_parse_error(line: str) -> RecordError:
    with pytest.raises(RecordError) as caught:
        parse_record(line, 1)
    failure = caught.value
    assert failure.code in PARSE_ERROR_CODES
    assert failure.exit_code == EXIT_DATA
    return failure


class TestMalformedInput:
    @given(junk=st.text(max_size=80))
    def test_arbitrary_text_maps_to_documented_codes(self, junk):
        try:
            parsed = parse_record(junk, 1)
        except RecordError as failure:
            assert failure.code in PARSE_ERROR_CODES
            assert failure.exit_code == EXIT_DATA
            assert failure.line == 1
        else:
            # Text that happens to be a valid record must be one.
            assert parsed["kind"] in RECORD_KINDS

    @given(record=records, cut=st.integers(min_value=1, max_value=10))
    def test_truncated_records_are_not_json(self, record, cut):
        line = dump_record(record).rstrip("\n")
        truncated = line[: max(1, len(line) - cut)]
        if truncated != line:
            failure = _expect_parse_error(truncated)
            assert failure.code == "not-json"

    @given(first=records, second=records)
    def test_interleaved_records_on_one_line_are_rejected(
        self, first, second
    ):
        """Two concatenated records on one line are not one record."""
        mashed = (
            dump_record(first).rstrip("\n") + dump_record(second).rstrip("\n")
        )
        failure = _expect_parse_error(mashed)
        assert failure.code == "not-json"

    @given(value=json_values)
    def test_non_object_json_is_rejected(self, value):
        line = json.dumps(value)
        if isinstance(value, dict):
            with pytest.raises(RecordError):
                parse_record(line, 1)  # object but no valid kind tag
        else:
            failure = _expect_parse_error(line)
            assert failure.code == "not-object"

    @given(
        kind=st.text(max_size=20).filter(lambda k: k not in RECORD_KINDS),
        data=json_values,
    )
    def test_unknown_kinds_are_rejected(self, kind, data):
        line = json.dumps({"kind": kind, "data": data})
        failure = _expect_parse_error(line)
        assert failure.code in {"unknown-kind", "missing-kind"}

    @given(record=records)
    def test_missing_data_payload_is_rejected(self, record):
        line = json.dumps({"kind": record["kind"]})
        failure = _expect_parse_error(line)
        assert failure.code == "missing-data"

    @given(batch=st.lists(records, max_size=4), junk=st.text(max_size=40))
    def test_iter_records_fails_at_the_offending_line(self, batch, junk):
        """Valid prefix records are yielded before the failure line."""
        if not junk.strip():
            return  # blank lines are skipped, not errors
        # Junk may span lines; blank ones are skipped but still counted,
        # so the failure lands on the first non-blank junk line.
        offset, bad = next(
            (number, line)
            for number, line in enumerate(junk.split("\n"), start=1)
            if line.strip()
        )
        try:
            parse_record(bad)
        except RecordError:
            pass
        else:
            return  # junk parsed cleanly; nothing to test
        text = "".join(dump_record(record) for record in batch) + junk + "\n"
        seen = []
        with pytest.raises(RecordError) as caught:
            for _line, record in iter_records(io.StringIO(text)):
                seen.append(record)
        assert seen == batch
        assert caught.value.line == len(batch) + offset


# ----------------------------------------------------------------------
# Mutation-kind rejection through the stream loader
# ----------------------------------------------------------------------


class TestMutationRejection:
    @given(
        kind=st.text(max_size=20).filter(
            lambda k: k not in MUTATION_KINDS
        ),
        payload=st.dictionaries(
            st.text(max_size=8), json_scalars, max_size=3
        ),
    )
    def test_unknown_mutation_kinds_raise_bad_mutation(self, kind, payload):
        document = dict(payload)
        document["kind"] = kind
        stream = io.StringIO(
            dump_record({"kind": "mutation", "data": document})
        )
        with pytest.raises(RecordError) as caught:
            load_stream(stream)
        assert caught.value.code == "bad-mutation"
        assert caught.value.exit_code == EXIT_DATA

    @given(data=st.one_of(json_scalars, st.lists(json_scalars, max_size=3)))
    def test_non_object_mutation_payloads_raise_bad_mutation(self, data):
        stream = io.StringIO(dump_record({"kind": "mutation", "data": data}))
        with pytest.raises(RecordError) as caught:
            load_stream(stream)
        assert caught.value.code == "bad-mutation"

    def test_error_records_reraise_with_their_carried_exit(self):
        record = error_record("unreachable", "server down", exit_code=69)
        with pytest.raises(RecordError) as caught:
            load_stream(io.StringIO(dump_record(record)))
        assert caught.value.code == "unreachable"
        assert caught.value.exit_code == 69

    def test_profile_after_mutation_is_a_stream_violation(self):
        lines = [
            dump_record(
                {"kind": "mutation", "data": {"kind": "remove_service"}}
            ),
            dump_record({"kind": "profile", "data": {}}),
        ]
        with pytest.raises(RecordError) as caught:
            load_stream(io.StringIO("".join(lines)))
        assert caught.value.code == "bad-record"


# ----------------------------------------------------------------------
# Process-boundary spot checks
# ----------------------------------------------------------------------


def _run_cli(args, stdin=""):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
        timeout=120,
    )


@settings(deadline=None, max_examples=5)
@given(junk=st.sampled_from(["{", "[1,2", "null", '"record"', "{}"]))
def test_subprocess_maps_malformed_stdin_to_exit_65(junk):
    result = _run_cli(["summarize"], stdin=junk + "\n")
    assert result.returncode == EXIT_DATA
    record = json.loads(result.stdout.splitlines()[-1])
    assert record["kind"] == "error"
    assert record["data"]["code"] in PARSE_ERROR_CODES
    assert record["data"]["exit"] == EXIT_DATA


def test_subprocess_rejects_unknown_mutation_kind_without_traceback():
    stdin = dump_record({"kind": "mutation", "data": {"kind": "nonsense"}})
    result = _run_cli(["mutate"], stdin=stdin)
    assert result.returncode == EXIT_DATA
    assert "Traceback" not in result.stderr
    record = json.loads(result.stdout.splitlines()[-1])
    assert record["data"]["code"] == "bad-mutation"
