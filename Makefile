# Convenience targets for the reproduction.

PYTHON ?= python3

# Every target works from a clean checkout: put the package on the
# import path without requiring an install step.
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test test-fast lint sanitize-smoke sweep-smoke serve-smoke dist-smoke bench bench-smoke obs-smoke realio-smoke regen-parity check reproduce reproduce-quick clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/
	$(PYTHON) scripts/sweep_smoke.py
	$(PYTHON) scripts/serve_smoke.py
	$(PYTHON) scripts/dist_smoke.py
	$(PYTHON) -m repro lint src --stats

# Static invariant enforcement (rules RPR001-RPR013, docs/LINT.md);
# exits non-zero on any finding not in lint-baseline.json.
lint:
	$(PYTHON) -m repro lint src --stats

# Runtime concurrency sanitizer (docs/LINT.md, RPR090-RPR092): a
# planted unlocked mutation must be caught, then a real-I/O sort and a
# 2-worker dist campaign must run clean under REPRO_SANITIZE=1.
sanitize-smoke:
	$(PYTHON) scripts/sanitize_smoke.py

test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow"

# Tiny 2-worker sweep; verifies the second pass is 100% cache hits and
# that no pool worker outlives a campaign.
sweep-smoke:
	$(PYTHON) scripts/sweep_smoke.py

# Live repro.serve instance on an ephemeral port: cache hits without a
# worker, coalescing, 429/503 shedding, a `repro sweep` campaign on the
# server's cache dir answered as hits, clean drain; then a `repro serve
# --workers 2` process: one pooled miss, SIGTERM drain with exit 0 and
# no worker left.  The final /v1/metricz snapshot lands in
# results/serve/ (CI artifact).
serve-smoke:
	$(PYTHON) scripts/serve_smoke.py

# Real-process distributed campaign: coordinator + worker over the CLI,
# SIGKILL the worker mid-campaign, a second worker must finish every
# shard (lease expiry + re-issue).  Mid-run /v1/metricz lands in
# results/dist/ (CI artifact).
dist-smoke:
	$(PYTHON) scripts/dist_smoke.py

# Kernel speedup baselines: every scenario, reference and batch in
# interleaved pairs, reports written as BENCH_<scenario>.json at the
# repo root.  Record on CPython 3.11, the interpreter CI compares on.
bench:
	$(PYTHON) -m repro bench run

# Every scenario against its committed baseline (what CI runs): fails
# when the p90 paired speedup falls below the baseline's p10, or a
# median exceeds 3x its baseline.
bench-smoke:
	$(PYTHON) -m repro bench run --out-dir results/bench
	for baseline in BENCH_*.json; do \
		$(PYTHON) -m repro bench compare $$baseline \
			results/bench/$$baseline || exit 1; \
	done

# Serial/pooled parity of the report path: every default experiment
# except ext-realio (its report holds host-measured timings) at
# --quick, once with --workers 1 and once with --workers 2.  The two
# reports and the two [trial memo: ...] lines must be identical.
regen-parity:
	mkdir -p results/parity
	ids=$$($(PYTHON) -c 'from repro.experiments.runner import default_experiment_ids as ids; print(*(i for i in ids() if i != "ext-realio"))'); \
	for workers in 1 2; do \
		$(PYTHON) -m repro run $$ids --quick --workers $$workers \
			> results/parity/report-$$workers.txt \
			2> results/parity/stderr-$$workers.txt || exit 1; \
		grep '^\[trial memo: ' results/parity/stderr-$$workers.txt \
			> results/parity/memo-$$workers.txt || exit 1; \
	done
	cmp results/parity/report-1.txt results/parity/report-2.txt
	cmp results/parity/memo-1.txt results/parity/memo-2.txt
	cat results/parity/memo-1.txt

# Traced replay of the pinned merge-d5 scenario, then a traced
# quick fig-3.5a report: exercises the repro.obs pipeline end to end
# (trace collection, busy-accounting cross-check, Chrome export,
# schema validation, a non-empty report trace).  What CI's obs-smoke
# job runs.
obs-smoke:
	$(PYTHON) -m repro run merge-d5 --trace-out results/obs/merge-d5.json
	$(PYTHON) -m repro trace validate results/obs/merge-d5.json
	$(PYTHON) -m repro run fig-3.5a --quick --blocks 20 \
		--trace-out results/obs/fig-3.5a.json
	$(PYTHON) -m repro trace validate results/obs/fig-3.5a.json

# The full sim-vs-real loop on a temp-filesystem dataset: run both
# strategies through the real-I/O backend with tracing, validate the
# trace artifact, and check the calibrated simulator agrees on strategy
# ordering (exits non-zero on DISAGREE).  What CI's realio-smoke job
# runs; report + trace land in results/realio/.
realio-smoke:
	$(PYTHON) -m repro realio validate --dir results/realio/dataset \
		--throttle 0.2 --trials 2 \
		--report results/realio/realio-report.json \
		--trace-out results/realio/realio-trace.json
	$(PYTHON) -m repro trace validate results/realio/realio-trace.json

# Lint, then the analytic tier (closed forms within 1% of the printed
# values) and the reduced-scale tier (short simulations within 3-8% of
# the closed forms) of repro.experiments.validation.
check:
	$(PYTHON) -m repro lint src --stats
	$(PYTHON) -m repro paper-check
	$(PYTHON) -m repro selfcheck

# Full paper-scale regeneration of every figure and table (~6 min).
reproduce:
	$(PYTHON) -m repro run all --out full_results.txt --export-dir results/

reproduce-quick:
	$(PYTHON) -m repro run all --quick --out quick_results.txt

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
