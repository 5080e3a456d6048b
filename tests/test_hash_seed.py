"""Served bytes do not depend on ``PYTHONHASHSEED``.

Every wire-codable query kind (the workload of ``test_snapshot.py``) is
served on the calibrated 201-service catalog, cold and again after 30
seeded mutations, in three subprocesses under ``PYTHONHASHSEED`` 0, 1
and 2.  Each prints the sha256 of the encoded results (the HTTP tier's
``json.dumps`` of :func:`~repro.api.wire.result_to_dict`, key order
kept); the three digests must be equal.  The maintained level maps, the
stream segments and every other ordered output ride on this: iteration
over a set or frozenset leaking into an answer shows up as a mismatch.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.api.wire import query_to_dict
from tests.test_snapshot import _workload

SCRIPT = """\
import hashlib, json, sys
from repro.api import AnalysisService
from repro.api.wire import query_from_dict, result_to_dict
from repro.catalog import build_default_ecosystem
from repro.dynamic import MutationStream

queries = [query_from_dict(document) for document in json.loads(sys.argv[1])]
service = AnalysisService(build_default_ecosystem())
digest = hashlib.sha256()


def serve():
    for result in service.execute_batch(queries):
        digest.update(json.dumps(result_to_dict(result)).encode("utf-8"))


serve()
stream = MutationStream(seed=29)
for _ in range(30):
    service.apply(stream.next_mutation(service.ecosystem))
serve()
print(service.version, digest.hexdigest())
"""


def test_served_bytes_are_hash_seed_independent():
    workload = json.dumps([query_to_dict(query) for query in _workload()])
    src = Path(__file__).resolve().parents[1] / "src"
    runs = []
    for hash_seed in ("0", "1", "2"):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src)
        env["PYTHONHASHSEED"] = hash_seed
        runs.append(
            subprocess.Popen(
                [sys.executable, "-c", SCRIPT, workload],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=env,
            )
        )
    outputs = []
    try:
        for run in runs:
            stdout, stderr = run.communicate(timeout=900)
            assert run.returncode == 0, stderr.decode()
            outputs.append(stdout)
    finally:
        for run in runs:
            if run.poll() is None:
                run.kill()
                run.wait()
    version, digest = outputs[0].split()
    assert version == b"30" and len(digest) == 64
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]
