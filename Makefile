# Developer entry points.  `make check` runs CI's code gates in one
# command (scripts/check.sh); lint, ruff, typecheck and test run one
# gate each.  `make bench` runs the service benchmark, BENCHMARK.json's
# `python3 perfbench/run.py`, once per workload at its defaults
# (seed 1, 12 s).

.PHONY: check lint ruff typecheck test bench

check:
	sh scripts/check.sh

lint:
	python -m repro.tooling.lint src

ruff:
	ruff check src tests benchmarks

typecheck:
	mypy --strict src/repro

test:
	python -m pytest -q

bench:
	for workload in serve-scan clean-durable store-reopen; do \
		python3 perfbench/run.py --workload $$workload || exit 1; \
	done
