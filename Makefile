PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint pylint acyclic goldens scalar-fixpoint pyfront-digests perfbench-test perfbench-smoke ranges invariants chaos stats bench bench-check bench-baseline bench-diff report serve loadtest

test:
	$(PYTHON) -m pytest -m "not bench" -q

lint:
	$(PYTHON) -m repro lint --strict examples/

pylint:
	$(PYTHON) -m repro pylint src/repro tests/pyfront/corpus perfbench/data \
		--fail-on error --out pylint-findings.json

# every analysis unit (examples/, perfbench DSL seeds 1-3, compile_module
# and each lowered function of the Python corpora) that leaves cyclic
# garbage; exits 1 if there is one
acyclic:
	$(PYTHON) -m tests.core.test_result_lifetime

# every golden's digests in one run (seeds 1-10 where the golden has
# seeds): run in two checkouts and diff the outputs
goldens:
	$(PYTHON) -m tests.frontend.test_parse_golden
	$(PYTHON) -m tests.scalar.test_scalar_golden
	$(PYTHON) -m tests.core.test_classify_golden
	$(PYTHON) -m tests.core.test_served_golden
	$(PYTHON) -m tests.invariants.test_paths_golden
	$(PYTHON) -m tests.ranges.test_ranges_golden
	$(PYTHON) -m tests.diagnostics.test_verifier_golden
	$(PYTHON) -m tests.pyfront.test_compile_golden
	$(PYTHON) -m tests.pyfront.test_pylint_golden
	$(PYTHON) -m tests.pyfront.test_first_blocker_golden

# every early stop of the scalar rounds, checked by running the skipped
# round on a clone: perfbench seeds 1-30 and 5,000 random programs
scalar-fixpoint:
	$(PYTHON) -m tests.scalar.test_fixpoint_stop

# sha256 of compile_module output (facts included) per .py file of the
# repository: not a golden, it pins nothing; diff two checkouts' outputs
pyfront-digests:
	$(PYTHON) -m tests.pyfront.test_compile_golden --repository

perfbench-test:
	$(PYTHON) -m pytest perfbench/test_bench.py -q

perfbench-smoke:
	python3 perfbench/run.py --workload dsl_chain --seed 1 --seconds 3 --trace 1
	python3 perfbench/run.py --workload dsl_mixed --seed 1 --seconds 3 --trace 1
	python3 perfbench/run.py --workload serve_editor --seed 1 --seconds 3 --trace 1
	python3 perfbench/run.py --workload py_corpus --seed 1 --seconds 3 --trace 1

ranges:
	$(PYTHON) -m repro lint --strict --ranges examples/

invariants:
	$(PYTHON) -m repro lint --strict --ranges --invariants examples/

chaos:
	for seed in 101 202 303 404 505; do \
		CHAOS_SEED=$$seed $(PYTHON) -m pytest tests/resilience -q || exit 1; \
	done

stats:
	rm -rf .repro/runs
	$(PYTHON) -m repro examples/ --ranges --invariants --runlog > /dev/null
	$(PYTHON) -m repro stats --strict

bench:
	$(PYTHON) -m pytest benchmarks --benchmark-only

bench-check:
	$(PYTHON) -m benchmarks.regress --check BENCH_0001.json

bench-baseline:
	$(PYTHON) -m benchmarks.regress --emit BENCH_0001.json

bench-diff:
	$(PYTHON) -m benchmarks.regress --compare BENCH_0004.json BENCH_0005.json

report:
	$(PYTHON) -m benchmarks.make_report

serve:
	$(PYTHON) -m repro serve --port 7457 --workers 2

loadtest:
	$(PYTHON) -m benchmarks.loadtest --clients 6 --requests 20 --workers 2 \
		--crash-rate 0.5 --seed 7
