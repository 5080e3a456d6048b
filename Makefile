PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: verify lint obs-check serve-check cli-check docs-check bench bench-quick

verify: lint obs-check serve-check cli-check
	$(PYTHON) -m pytest -x -q

lint:
	$(PYTHON) tools/lint.py

obs-check:
	$(PYTHON) -m repro.obs.selfcheck

# The HTTP tier's end-to-end smoke: boots a server on an ephemeral
# port and drives query -> mutate -> re-query -> paginate, admission
# overflow, migration, and the rejected-mutation/audit path; plus the
# shard and audit-log unit tests below the HTTP surface.
serve-check:
	$(PYTHON) -m pytest -x -q tests/test_serve_http.py tests/test_serve_units.py

# The CLI battery: differential piped-vs-in-process equivalence, the
# NDJSON codec fuzz suite, and the golden record fixtures.
cli-check:
	$(PYTHON) -m pytest -x -q tests/test_cli_pipeline.py tests/test_cli_codec.py

docs-check:
	$(PYTHON) -m pytest -q tests/test_docs_examples.py

bench:
	$(PYTHON) -m pytest -q benchmarks/test_bench_scaling.py benchmarks/test_bench_churn.py benchmarks/test_bench_cli.py

# The 402-tier engine comparison only: skips the 1000-service serving
# tiers and the 10k/30k big tiers (BENCH_FULL=1 on `make bench` adds 30k).
bench-quick:
	BENCH_QUICK=1 $(PYTHON) -m pytest -q benchmarks/test_bench_scaling.py
