# Developer entry points.  The tier-1 command is the contract: it must stay
# green on every commit (see ROADMAP.md).

PY ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench bench-check bench-figs perfbench perfbench-check sweep-smoke search-smoke lint lint-fixtures

## Tier-1: fast unit/integration suite (the gate for every PR).
test:
	$(PY) -m pytest -x -q

## Sweep-engine benchmark: measures parallel/cached speedups and the
## distributed-vs-serial gap; appends trajectory entries to
## BENCH_sweep.json.
bench:
	$(PY) -m pytest benchmarks/test_sweep_engine.py benchmarks/test_adaptive_search.py -m benchmark -q

## Distributed-backend smoke: >= 32-scenario grid through a two-worker local
## fleet with a mid-sweep worker kill; asserts bit-identity with the serial
## pass and a >= 95% warm cache rerun.
sweep-smoke:
	$(PY) -m pytest benchmarks/test_distributed_sweep.py -m benchmark -q

## Adaptive-search smoke: budgeted halving over a 256-point space must
## evaluate <= 25% of it and land within 5% of the exhaustive optimum;
## records adaptive_vs_exhaustive in BENCH_sweep.json.
search-smoke:
	$(PY) -m pytest benchmarks/test_adaptive_search.py -m benchmark -q

## Full figure-reproduction drivers (Figs. 1-10, ~minutes).
bench-figs:
	$(PY) -m pytest benchmarks -m benchmark -q

## Repo benchmark on all four workloads of BENCHMARK.json: the two
## epoch-loop workloads, the warm-cache replay and cold ladder
## exploration.  Prints each workload's end-to-end table and checks every
## result against the pinned digests.  The first run in a checkout
## explores all ladders into .perfbench_state/ (~45 s).
perfbench:
	$(PY) perfbench/run.py --workload fig5-constant
	$(PY) perfbench/run.py --workload diurnal-multiapp
	$(PY) perfbench/run.py --workload warm-replay
	$(PY) perfbench/run.py --workload explore-cold

## Digest gate on the benchmark's full scenario set: warm-replay's set-up
## runs all 216 Fig. 5 and diurnal scenarios, and the run fails unless
## every result matches perfbench/reference.json ("correct": true).
perfbench-check:
	$(PY) scripts/perfbench_check.py

## Trajectory hygiene: BENCH_sweep.json parses and is monotone-appended.
bench-check:
	$(PY) scripts/bench_check.py

## Import/syntax floor plus repro-lint: byte-compile everything, then
## enforce the determinism/lease-clock/serialization invariants
## (strict: stale baseline entries fail too).  The bytecode goes to a
## throwaway prefix, so lint leaves no __pycache__/ in the tree.
lint:
	@prefix=$$(mktemp -d); \
	PYTHONPYCACHEPREFIX=$$prefix $(PY) -m compileall -q src tests benchmarks examples scripts; \
	status=$$?; rm -rf $$prefix; exit $$status
	$(PY) -m repro.analysis --strict

## Sanity-check the lint fixture corpus: every bad fixture must still
## fail its zone's rules, every good fixture must stay clean.  Guards
## against a rule silently going blind.  Single files exercise the
## per-file rules under a forced zone; the directories under
## fixtures/project/ are miniature projects exercising the cross-file
## taint rules.
lint-fixtures:
	@for f in tests/analysis/fixtures/*/bad_*.py; do \
		zone=$$(basename $$(dirname $$f)); \
		if $(PY) -m repro.analysis --no-baseline --zone $$zone $$f >/dev/null; then \
			echo "lint-fixtures: $$f unexpectedly passed"; exit 1; \
		fi; \
	done
	@for f in tests/analysis/fixtures/*/good_*.py; do \
		zone=$$(basename $$(dirname $$f)); \
		if ! $(PY) -m repro.analysis --no-baseline --zone $$zone $$f >/dev/null; then \
			echo "lint-fixtures: $$f unexpectedly failed"; exit 1; \
		fi; \
	done
	@for d in tests/analysis/fixtures/project/bad_*/; do \
		if $(PY) -m repro.analysis --no-baseline --root $$d $$d >/dev/null; then \
			echo "lint-fixtures: $$d unexpectedly passed"; exit 1; \
		fi; \
	done
	@for d in tests/analysis/fixtures/project/good_*/; do \
		if ! $(PY) -m repro.analysis --no-baseline --root $$d $$d >/dev/null; then \
			echo "lint-fixtures: $$d unexpectedly failed"; exit 1; \
		fi; \
	done
	@echo "lint-fixtures: ok"
