# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench-seed csv examples experiments coverage clean

all: build

build:
	dune build @all

test:
	dune runtest

# Regenerate the perf-regression baseline CI gates on: one perfbench run
# per BENCHMARK.json workload (≈ 35 s).  Run on a quiet host.
bench-seed:
	python3 scripts/check_bench_regression.py record BENCH_seed.json

# Dump every experiment table as CSV into ./results
csv:
	dune exec bin/asyncolor_cli.exe -- experiments -j 1 --csv results

examples:
	dune exec examples/quickstart.exe
	dune exec examples/crash_tolerance.exe
	dune exec examples/adversarial_chain.exe
	dune exec examples/renaming_c3.exe
	dune exec examples/general_graphs.exe
	dune exec examples/model_separation.exe

experiments:
	dune exec bin/asyncolor_cli.exe -- experiments

# Coverage-instrumented test run (requires bisect_ppx; the dune
# instrumentation stanzas are inert without it, so a plain build never
# needs it installed).  Produces _coverage/index.html and enforces the
# per-library floors in coverage-baseline.txt.
coverage:
	@ocamlfind query bisect_ppx >/dev/null 2>&1 || { \
	  echo "coverage: bisect_ppx is not installed (opam install bisect_ppx)"; \
	  echo "coverage: skipping — the build itself never needs it."; \
	  exit 0; } && \
	$(MAKE) coverage-run

.PHONY: coverage-run
coverage-run:
	find . -name '*.coverage' -delete
	dune runtest --instrument-with bisect_ppx --force
	bisect-ppx-report html --source-path . -o _coverage \
	  $$(find _build -name '*.coverage')
	bisect-ppx-report summary --per-file \
	  $$(find _build -name '*.coverage') > _coverage/summary.txt
	scripts/check_coverage.sh _coverage/summary.txt coverage-baseline.txt
	@echo "coverage: report in _coverage/index.html"

clean:
	dune clean
