# Developer entry points.  The tier-1 command is the contract: it must stay
# green on every commit (see ROADMAP.md).

PY ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench bench-check bench-figs perfbench perfbench-check sweep-smoke search-smoke lint

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
## enforce the determinism/lease-clock/serialization invariants.  The
## bytecode goes to a throwaway prefix, so lint leaves no __pycache__/
## in the tree.  The lint fixture corpus runs in tier-1
## (tests/analysis/test_cli.py).
lint:
	@prefix=$$(mktemp -d); \
	PYTHONPYCACHEPREFIX=$$prefix $(PY) -m compileall -q src tests benchmarks examples scripts; \
	status=$$?; rm -rf $$prefix; exit $$status
	$(PY) -m repro.analysis
