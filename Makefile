# Developer entry points; CI (.github/workflows/ci.yml) calls these too.

PYTHON ?= python
PYTHONPATH := src

.PHONY: test lint bench bench-smoke bench-compare fuzz fuzz-smoke \
	check-goldens qos-smoke qos-campaign serve-smoke perfbench-selftest \
	reproduce

test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

lint:
	$(PYTHON) -m ruff check src tests benchmarks

# The two wall-clock gates: timing-core sim-rate and telemetry overhead.
bench-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -m bench -s \
		benchmarks/test_timing_simrate.py \
		benchmarks/test_telemetry_overhead.py

# Perf-regression tripwire: measure the reference workload and exit nonzero
# if instr/s drops >30% below the best stored BENCH_timing run with the
# same config fingerprint and label (30% absorbs runner noise; real
# hot-path regressions are 2x+).
bench-compare:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro profile --no-cprofile \
		--repeats 3 --compare benchmarks/BENCH_timing.json \
		--max-regression 30

# Differential fuzzing: every random config/workload/policy case must
# simulate bit-identically after a JSON trace round-trip. `fuzz` is the
# nightly CI leg (failures land in fuzz-corpus/ as minimal shrunk repros);
# `fuzz-smoke` rides tier-1.
fuzz:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro validate fuzz \
		--seeds 200 --invariants --corpus fuzz-corpus
fuzz-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro validate fuzz \
		--seeds 20 --invariants --quiet

check-goldens:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro validate check-goldens

# Open-loop QoS: a short adaptive bursty run (prints the SLO report and
# must rerun bit-identically — the same contract the QoS goldens pin);
# qos-campaign scores adaptive vs every static policy on all scenarios
# and fails unless adaptive wins an SLO no static policy meets.
qos-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro qos run \
		--scenario bursty --clients 3 --seed 7 --requests 4 \
		--out /tmp/qos-smoke
qos-campaign:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro qos campaign \
		--out benchmarks/QOS_campaign.json --require-win

# Simulation-as-a-service smoke: ingest the checked-in benchmark history
# into a scratch repository, start the dashboard on an ephemeral port,
# assert /runs and /compare serve real payloads, then tear down.
serve-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) scripts/serve_smoke.py

# Self-tests of the perfbench harness: pin digests, seeded pair choice,
# span recorder and host-speed probes.  A few seconds, no timing gates.
perfbench-selftest:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest perfbench/tests -q

# The paper checks: regenerate all 12 tables and figures into
# $(REPRODUCE_OUT)/RESULTS.md.  Fails unless every one of the 12 checks
# reports PASS (`repro reproduce` exits nonzero on any CHECK; the count
# guards against an experiment silently dropping out of the list).
REPRODUCE_OUT ?= results
reproduce:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro reproduce --out $(REPRODUCE_OUT)
	test "$$(grep -c '^| [a-z0-9]* | PASS |' $(REPRODUCE_OUT)/RESULTS.md)" -eq 12

# The full figure/table reproduction suite.
bench:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks -q
