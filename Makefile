# Convenience wrapper around dune.  `make check` is the whole gate:
# build everything, run the static-analysis lint over every shipped
# scenario (config lint + trace invariant check + bounded exhaustive
# checker), then the test suite (which includes the campaign smoke
# gate), then explicit 2-worker campaign runs — the clean smoke
# campaign and the fault-injection sweep — each compared against its
# committed golden report.

.PHONY: all build lint test check clean campaign-smoke campaign-baseline \
  faults-smoke telemetry-smoke chaos-smoke model-smoke topo-smoke \
  topo-faults-smoke obs-smoke admit-smoke bench-smoke slot-guard

all: build

build:
	dune build @all

lint:
	dune build @lint

test:
	dune runtest

# Run the smoke campaign with 2 workers, the perf_v1 campaign (DDCR
# and TDMA on two scenarios) and campaign_v1 (five protocols on six
# scenarios, clean and at fault_rate 0.05), and gate each against its
# committed report; exits non-zero on any metric regression.
campaign-smoke: build
	dune exec bin/ddcr_campaign.exe -- compare smoke -j 2 --quiet \
	  -o _build/BENCH_smoke.current.json \
	  --baseline test/fixtures/BENCH_smoke_golden.json
	dune exec bin/ddcr_campaign.exe -- compare perf_v1 --quiet \
	  -o _build/BENCH_perf.current.json \
	  --baseline BENCH_perf.json
	dune exec bin/ddcr_campaign.exe -- compare campaign_v1 --quiet \
	  -o _build/BENCH_campaign_v1.current.json \
	  --baseline BENCH_campaign_v1.json

# Run the fault-injection sweep (burst noise, misperception, crash
# windows over DDCR) and gate it against the committed golden report.
faults-smoke: build
	dune exec bin/ddcr_campaign.exe -- compare fault_sweep -j 2 --quiet \
	  -o _build/BENCH_fault_sweep.current.json \
	  --baseline test/fixtures/BENCH_fault_sweep.json

# End-to-end telemetry gate: record a DDCR run with the full probe
# stack, export its Perfetto timeline, then validate it (JSON parses,
# spans nest, every transmission span's class headroom >= 0) and run
# a profiled 2-worker campaign whose worker timeline must validate
# too.
telemetry-smoke: build
	dune exec bin/ddcr_sim.exe -- -s videoconference -n 4 --horizon-ms 2 \
	  --telemetry --trace-out _build/telemetry_smoke.json > /dev/null
	dune exec bin/ddcr_lint.exe -- --check-perfetto _build/telemetry_smoke.json
	dune exec bin/ddcr_campaign.exe -- run smoke -j 2 --quiet --profile \
	  --profile-trace _build/telemetry_workers.json \
	  -o _build/BENCH_smoke.profile.json > /dev/null
	dune exec bin/ddcr_lint.exe -- --check-perfetto _build/telemetry_workers.json

# Adversarial fault-schedule gate: the committed chaos search config
# must still find a violation, the delta-debugging shrinker must
# minimize the 4-event finding to one event and reproduce the
# committed artifact byte-for-byte, the frozen repro must replay with
# the same verdict and trace fingerprint, and tampered/invalid
# artifacts must be rejected with the documented exit codes.
chaos-smoke: build
	dune build @chaos-smoke

# Explicit-state model-checking gate: exhaustively verify the small
# uniform instance clean, re-find the committed broken-ξ
# counterexample (exit 1 asserted), regenerate its replay artifact
# byte-for-byte, replay it through ddcr_chaos, and lint-check the v2
# artifact plus a torn copy (exit 2 asserted).
model-smoke: build
	dune build @model-smoke

# Multi-hop topology gate: the committed fixtures must keep their
# documented admission verdicts (admitted / budget-below-B_DDCR /
# malformed route), the admitted 1008-source star must simulate to the
# horizon with zero unexcused end-to-end misses with the domain-sharded
# run byte-identical to the single-domain one, and the topology_sweep
# campaign must reproduce its committed golden report.
topo-smoke: build
	dune build @topo-smoke
	dune exec bin/ddcr_campaign.exe -- compare topology_sweep --quiet \
	  -o _build/BENCH_topology_sweep.current.json \
	  --baseline test/fixtures/BENCH_topology_sweep.json

# Fault-tolerant federation gate: the committed 3-segment tree must
# keep its documented fault-aware admission verdicts (survivable crash
# admitted / deadline-swallowing crash OVERLOADED / out-of-segment
# station malformed), the admitted tree must simulate through the
# bridge crash with zero unexcused misses and a DEGRADED/RESTORED
# transition pair, the topology chaos search must still find the
# seeded bridge-crash accept-then-violate counterexample and shrink it
# to the committed artifact byte-for-byte, and the topology_fault_sweep
# campaign must reproduce its committed golden report.
topo-faults-smoke: build
	dune build @topo-faults-smoke
	dune exec bin/ddcr_campaign.exe -- compare topology_fault_sweep --quiet \
	  -o _build/BENCH_topology_fault_sweep.current.json \
	  --baseline test/fixtures/BENCH_topology_fault_sweep.json

# Observability gate: the seeded federated fault run must dump a
# postmortem byte-identical to the committed golden (and ddcr_chaos
# replay must regenerate the frozen failure's postmortem likewise),
# the stitched cross-segment causal flows must pass ddcr_lint
# --check-perfetto (with the corrupted-flow fixture asserted to exit
# 1), and a live flight-recorder ring may cost at most 1.5x a run
# without a sink (paired-timing guard, bench/paired.ml).
obs-smoke: build
	dune build @obs-smoke
	dune exec bench/obs_guard.exe

# Crash-safe admission gate: replay the committed churn fixture, with
# a self-check on every decision and in the default configuration,
# against the golden decision log and run the seeded
# accept-then-violate chaos pipeline (@admit-smoke); kill -9 the
# service mid-trace with a torn journal record and assert --resume
# completes a decision log byte-identical to the golden; and pin the
# incremental engine at >= 10x the from-scratch analysis (paired-timing
# guard, bench/paired.ml).
admit-smoke: build
	dune build @admit-smoke
	rm -f _build/admit_crash.log _build/admit_crash.wal _build/admit_crash.wal.snap
	-dune exec bin/ddcr_admit.exe -- run test/fixtures/admit_churn_smoke.json \
	  -o _build/admit_crash.log --journal _build/admit_crash.wal \
	  --crash-after 97 --crash-torn --quiet
	dune exec bin/ddcr_admit.exe -- run test/fixtures/admit_churn_smoke.json \
	  -o _build/admit_crash.log --journal _build/admit_crash.wal --resume \
	  --quiet
	cmp test/fixtures/admit_decisions_golden.log _build/admit_crash.log
	dune exec bench/admit_guard.exe

# Station-scaling and fault-path gates of the DDCR slot: the dense bus
# with and without 48 silent stations on one 64-leaf static tree must
# keep the same outcome digest, and the silent stations may make a slot
# at most 1.8x as costly; the faulty bus under the benchmark's fault
# plan may make a slot at most 3.5x as costly as without a plan.
slot-guard: build
	dune exec bench/slot_guard.exe

# Layered-benchmark gate: every perfbench workload (dense, faulty,
# churn, federation) in both modes (end-to-end and per-layer) at tiny
# sizes.  Exits non-zero if a run reports a correctness violation
# (digest drift across repetitions, message conservation, unexcused
# misses) or leaves out a metric BENCHMARK.json declares.
bench-smoke: build
	python3 perfbench/run.py --smoke

# Refresh the committed campaign baselines after an intentional
# behaviour change (review the diff before committing!).  perf_v1 runs
# with --profile so its DDCR cells keep their telemetry snapshots.
campaign-baseline: build
	dune exec bin/ddcr_campaign.exe -- run campaign_v1 -j 2 --quiet \
	  -o BENCH_campaign_v1.json
	dune exec bin/ddcr_campaign.exe -- run smoke -j 2 --quiet \
	  -o test/fixtures/BENCH_smoke_golden.json
	dune exec bin/ddcr_campaign.exe -- run fault_sweep -j 2 --quiet \
	  -o test/fixtures/BENCH_fault_sweep.json
	dune exec bin/ddcr_campaign.exe -- run topology_sweep --quiet \
	  -o test/fixtures/BENCH_topology_sweep.json
	dune exec bin/ddcr_campaign.exe -- run topology_fault_sweep --quiet \
	  -o test/fixtures/BENCH_topology_fault_sweep.json
	dune exec bin/ddcr_campaign.exe -- run perf_v1 --profile --quiet \
	  -o BENCH_perf.json

check:
	dune build @all @lint && dune runtest && $(MAKE) campaign-smoke \
	  && $(MAKE) faults-smoke && $(MAKE) telemetry-smoke \
	  && $(MAKE) chaos-smoke && $(MAKE) model-smoke && $(MAKE) topo-smoke \
	  && $(MAKE) topo-faults-smoke && $(MAKE) obs-smoke \
	  && $(MAKE) admit-smoke && $(MAKE) slot-guard && $(MAKE) bench-smoke

clean:
	dune clean
