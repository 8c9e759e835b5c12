.PHONY: all build test bench fuzz trace critpath monitor monitor-baseline \
  scale testers live perf-smoke ci clean

all: build

build:
	dune build

test:
	dune runtest

bench:
	dune exec bench/main.exe

# Property-based / fuzz suite (qcheck with shrinking): the Stage I
# differential against the centralized reference, the one-sided-error
# invariant under fault injection, the domains x fast-forward x fault-seed
# accounting invariant, and the Bits fragmentation fuzz.  QCHECK_SEED pins
# the random state (CI sets it per matrix leg); PROP_DOMAINS caps the
# domain sweep (default 4).  On failure qcheck prints the shrunk
# counterexample — paste it into a regression test.
#   make fuzz                           # fresh random seed
#   make fuzz QCHECK_SEED=1234          # reproduce a CI leg
fuzz: build
	env $(if $(QCHECK_SEED),QCHECK_SEED=$(QCHECK_SEED)) \
	  ./_build/default/test/test_prop.exe

# End-to-end tracing check (also a CI leg): record the same tester run
# under --domains 1, --domains 4 and --no-fast-forward, assert with
# `planartrace diff` that the simulated accounting of each is
# byte-identical to the serial trace (only host metrics may differ), do
# the same for the run under
# --faults drop=0.01,seed=7 at --domains 1, --domains 4 and
# --no-fast-forward, and validate the Perfetto
# export round-trip — the export is a pure function of the
# .ctrace bytes, so exporting the golden trace twice must be
# byte-identical.  TRACE_DIR (default /tmp/planartrace) keeps the
# artifacts for upload on CI failure.
TRACE_DIR ?= /tmp/planartrace
trace: build
	mkdir -p $(TRACE_DIR)
	./_build/default/bin/planartest.exe gen --family grid --n 256 \
	  > $(TRACE_DIR)/input.txt
	./_build/default/bin/planartest.exe test $(TRACE_DIR)/input.txt \
	  --eps 0.3 --domains 1 --trace $(TRACE_DIR)/d1.ctrace \
	  --stats-json $(TRACE_DIR)/d1.stats.json
	./_build/default/bin/planartest.exe test $(TRACE_DIR)/input.txt \
	  --eps 0.3 --domains 4 --trace $(TRACE_DIR)/d4.ctrace
	./_build/default/bin/planartest.exe test $(TRACE_DIR)/input.txt \
	  --eps 0.3 --no-fast-forward --trace $(TRACE_DIR)/noff.ctrace
	./_build/default/bin/planartrace.exe info $(TRACE_DIR)/d1.ctrace
	set -e; for t in d4 noff; do \
	  ./_build/default/bin/planartrace.exe diff $(TRACE_DIR)/d1.ctrace \
	    $(TRACE_DIR)/$$t.ctrace; \
	done
	set -e; for t in "d1 --domains 1" "d4 --domains 4" \
	  "noff --no-fast-forward"; do \
	  set -- $$t; tag=$$1; shift; \
	  ./_build/default/bin/planartest.exe test $(TRACE_DIR)/input.txt \
	    --eps 0.3 --faults drop=0.01,seed=7 "$$@" \
	    --trace $(TRACE_DIR)/faulted-$$tag.ctrace > /dev/null; \
	done
	set -e; for t in d4 noff; do \
	  ./_build/default/bin/planartrace.exe diff \
	    $(TRACE_DIR)/faulted-d1.ctrace $(TRACE_DIR)/faulted-$$t.ctrace; \
	done
	./_build/default/bin/planartrace.exe export $(TRACE_DIR)/d1.ctrace \
	  -o $(TRACE_DIR)/d1.perfetto.json
	./_build/default/bin/planartrace.exe export $(TRACE_DIR)/d1.ctrace \
	  -o $(TRACE_DIR)/d1.perfetto.json.again
	cmp $(TRACE_DIR)/d1.perfetto.json $(TRACE_DIR)/d1.perfetto.json.again

# Causal critical-path gate (also a CI leg).  Five parts:
#   1. delay-free exact gate — record a pinned-seed traced planartest
#      run with a ring sized to hold every event, then `planartrace
#      critpath --gate exact`: the causal chain must explain every
#      round (path length = total traced rounds, zero excess, ring
#      complete), and the JSON must carry the locked critpath/v1 tag.
#   2. invariance — the critpath JSON of the same (smaller) workload
#      must be byte-identical under --domains 1/4 and --no-fast-forward
#      (the ff-off leg records every per-round spin resume, so it needs
#      the bigger share of the ring; the analyzer's timer-collapse folds
#      them back into the same path).
#   3. delay-storm attribution — the tester is deadline-scheduled, so a
#      delay storm shows up as slack absorption, never path excess: the
#      storm leg locks the path's excess at zero.  The complementary
#      half — a delivery-driven workload whose inflation IS excess,
#      with contracted_rounds recovering the clean run exactly — is the
#      relay-chain unit pair in test_trace.exe (critpath group), run as
#      part 4.
#   5. the Perfetto export with the --critpath overlay is a pure
#      function of the .ctrace bytes: exporting twice must be
#      byte-identical.
# CRITPATH_DIR keeps the artifacts for upload on CI failure.  None of
# the gated commands sit behind a pipe, so their exit codes reach make.
CRITPATH_DIR ?= /tmp/planarcritpath
critpath: build
	mkdir -p $(CRITPATH_DIR)
	./_build/default/bin/planartest.exe gen --family grid --n 256 \
	  > $(CRITPATH_DIR)/g256.txt
	./_build/default/bin/planartest.exe test $(CRITPATH_DIR)/g256.txt \
	  --eps 0.3 --seed 3 --trace $(CRITPATH_DIR)/exact.ctrace \
	  --trace-capacity 1048576 --log-level warn > /dev/null
	./_build/default/bin/planartrace.exe critpath \
	  $(CRITPATH_DIR)/exact.ctrace --gate exact \
	  --json $(CRITPATH_DIR)/exact.critpath.json
	grep -q '"schema":"critpath/v1"' $(CRITPATH_DIR)/exact.critpath.json
	./_build/default/bin/planartest.exe gen --family grid --n 64 \
	  > $(CRITPATH_DIR)/g64.txt
	./_build/default/bin/planartest.exe test $(CRITPATH_DIR)/g64.txt \
	  --eps 0.1 --seed 3 --trace $(CRITPATH_DIR)/d1.ctrace \
	  --trace-capacity 1048576 --log-level warn > /dev/null
	./_build/default/bin/planartest.exe test $(CRITPATH_DIR)/g64.txt \
	  --eps 0.1 --seed 3 --domains 4 --trace $(CRITPATH_DIR)/d4.ctrace \
	  --trace-capacity 1048576 --log-level warn > /dev/null
	./_build/default/bin/planartest.exe test $(CRITPATH_DIR)/g64.txt \
	  --eps 0.1 --seed 3 --no-fast-forward \
	  --trace $(CRITPATH_DIR)/noff.ctrace \
	  --trace-capacity 1048576 --log-level warn > /dev/null
	./_build/default/bin/planartrace.exe critpath $(CRITPATH_DIR)/d1.ctrace \
	  --gate exact --json $(CRITPATH_DIR)/d1.critpath.json > /dev/null
	./_build/default/bin/planartrace.exe critpath $(CRITPATH_DIR)/d4.ctrace \
	  --json $(CRITPATH_DIR)/d4.critpath.json > /dev/null
	./_build/default/bin/planartrace.exe critpath \
	  $(CRITPATH_DIR)/noff.ctrace \
	  --json $(CRITPATH_DIR)/noff.critpath.json > /dev/null
	cmp $(CRITPATH_DIR)/d1.critpath.json $(CRITPATH_DIR)/d4.critpath.json
	cmp $(CRITPATH_DIR)/d1.critpath.json $(CRITPATH_DIR)/noff.critpath.json
	./_build/default/bin/planartest.exe test $(CRITPATH_DIR)/g256.txt \
	  --eps 0.3 --seed 3 --faults "delay=0.2,maxdelay=8,seed=7" \
	  --trace $(CRITPATH_DIR)/storm.ctrace --trace-capacity 1048576 \
	  --log-level warn > /dev/null
	./_build/default/bin/planartrace.exe critpath \
	  $(CRITPATH_DIR)/storm.ctrace \
	  --json $(CRITPATH_DIR)/storm.critpath.json > /dev/null
	grep -q '"excess_rounds":0,"stitch_rounds"' \
	  $(CRITPATH_DIR)/storm.critpath.json
	./_build/default/test/test_trace.exe test critpath \
	  > $(CRITPATH_DIR)/units.txt 2>&1; \
	  code=$$?; cat $(CRITPATH_DIR)/units.txt; exit $$code
	./_build/default/bin/planartrace.exe export $(CRITPATH_DIR)/d1.ctrace \
	  --critpath -o $(CRITPATH_DIR)/overlay.json
	./_build/default/bin/planartrace.exe export $(CRITPATH_DIR)/d1.ctrace \
	  --critpath -o $(CRITPATH_DIR)/overlay.json.again
	cmp $(CRITPATH_DIR)/overlay.json $(CRITPATH_DIR)/overlay.json.again

# Metrics regression gate (also a CI leg): take a fresh stable-only
# metrics/v1 snapshot of planarmon's default workload (grid n=512,
# eps=0.2, seed=0) and compare it field-by-field against the committed
# baseline.  The stable projection is machine-independent by contract —
# no wall clock, no GC, byte-identical across --domains and
# fast-forward — so the compare is exact and portable.  Exit 1 means
# the simulated behaviour changed: either a regression crept into the
# engine/tester, or the change is intentional and the baseline must be
# refreshed deliberately with
#   make monitor-baseline
# and the refreshed MONITOR_baseline.json committed alongside the
# change that explains it (see EXPERIMENTS.md).  MONITOR_DIR keeps the
# candidate snapshot and OpenMetrics text for upload on CI failure.
MONITOR_DIR ?= /tmp/planarmon
monitor: build
	mkdir -p $(MONITOR_DIR)
	./_build/default/bin/planarmon.exe snapshot --stable-only \
	  --json $(MONITOR_DIR)/current.json \
	  --openmetrics $(MONITOR_DIR)/current.om
	./_build/default/bin/planarmon.exe compare MONITOR_baseline.json \
	  $(MONITOR_DIR)/current.json > $(MONITOR_DIR)/compare.txt 2>&1; \
	  code=$$?; cat $(MONITOR_DIR)/compare.txt; exit $$code

monitor-baseline: build
	./_build/default/bin/planarmon.exe snapshot --stable-only \
	  --json MONITOR_baseline.json --openmetrics /dev/null

# Million-node substrate gate (also a CI leg).  Two halves:
#   1. quick M1 — the memory-substrate experiment; its bytes/node and
#      bytes/edge columns are analytic (Graph.storage_bytes + the engine
#      pool footprint), so they are deterministic and meaningful even on
#      a loaded CI box.
#   2. checkpoint round trip — run planartest to completion for a
#      reference stats JSON, rerun with --checkpoint --checkpoint-exit 1
#      (must exit 3 after the first phase-boundary save, simulating a
#      kill), resume from the checkpoint file, and require the resumed
#      stats JSON to be byte-identical (cmp) to the uninterrupted one.
SCALE_DIR ?= /tmp/planarscale
scale: build
	mkdir -p $(SCALE_DIR)
	dune exec bench/main.exe -- --quick --no-timings --only M1 \
	  --json $(SCALE_DIR)/m1.json
	./_build/default/bin/planartest.exe gen --family far -n 4000 \
	  --param 0.3 --seed 5 > $(SCALE_DIR)/g.txt
	./_build/default/bin/planartest.exe test $(SCALE_DIR)/g.txt --eps 0.05 \
	  --stats-json $(SCALE_DIR)/full.json --log-level warn > /dev/null
	rm -f $(SCALE_DIR)/ck.bin
	./_build/default/bin/planartest.exe test $(SCALE_DIR)/g.txt --eps 0.05 \
	  --checkpoint $(SCALE_DIR)/ck.bin --checkpoint-exit 1 \
	  --log-level warn > /dev/null; test $$? -eq 3
	./_build/default/bin/planartest.exe test $(SCALE_DIR)/g.txt --eps 0.05 \
	  --checkpoint $(SCALE_DIR)/ck.bin \
	  --stats-json $(SCALE_DIR)/resumed.json --log-level warn > /dev/null
	cmp $(SCALE_DIR)/full.json $(SCALE_DIR)/resumed.json
	# 3. same kill/resume, now with --trace: snapshots carry the event-trace
	#    state, so the resumed .ctrace must agree with an uninterrupted one
	#    on every simulated aggregate (planartrace diff ignores host-side
	#    wall-clock/GC, which legitimately restart at the resume point; the
	#    v3 stats JSON embeds host profiles, so cmp is only valid on the
	#    trace-free legs above).
	./_build/default/bin/planartest.exe test $(SCALE_DIR)/g.txt --eps 0.05 \
	  --trace $(SCALE_DIR)/full.ctrace --log-level warn > /dev/null
	rm -f $(SCALE_DIR)/ck-trace.bin
	./_build/default/bin/planartest.exe test $(SCALE_DIR)/g.txt --eps 0.05 \
	  --trace $(SCALE_DIR)/killed.ctrace \
	  --checkpoint $(SCALE_DIR)/ck-trace.bin --checkpoint-exit 1 \
	  --log-level warn > /dev/null; test $$? -eq 3
	./_build/default/bin/planartest.exe test $(SCALE_DIR)/g.txt --eps 0.05 \
	  --trace $(SCALE_DIR)/resumed.ctrace \
	  --checkpoint $(SCALE_DIR)/ck-trace.bin --log-level warn > /dev/null
	./_build/default/bin/planartrace.exe diff $(SCALE_DIR)/full.ctrace \
	  $(SCALE_DIR)/resumed.ctrace

# Tester-portfolio and executor gate (also a CI leg).  Four parts:
#   1. the harness unit suite: verdict plumbing, Degraded propagation
#      under faults, checkpoint validation, the run's settings reaching
#      every partition mode, eps-clamp boundaries.
#   2. the whole property suite under a pinned QCHECK_SEED: Stage I and
#      the bipartiteness / cycle-freeness testers vs the centralized
#      references, never-reject on holding inputs (faults off or on),
#      certified-far instances rejecting deterministically, and the
#      domains x ff (x faults) totals invariance.  On failure the
#      shrunk qcheck counterexample is in the captured log under
#      TESTERS_DIR for CI artifact upload — paste it into a regression
#      test.
#   3. a quick T1 + E11 run (T1 hard-asserts every (property,
#      instance) verdict internally and exits 1 on any mismatch; E11
#      does the same for the Corollary 16 testers under the Stage I
#      and the randomized partition).
#   4. domain legs: a grid, a far-from-planar input (Stage I's reject
#      path) and an apollonian triangulation run under --domains 4 and
#      an oversubscribed --domains 17 (node hooks then run on many
#      worker domains, which is where a per-node table written from the
#      wrong node would race), each gated by `planarmon compare
#      --no-wall` against the serial stats JSON: only the members that
#      echo the domain count (Report.field_class Config) may differ.
TESTERS_DIR ?= /tmp/planartesters
testers: build
	mkdir -p $(TESTERS_DIR)
	./_build/default/test/test_tester_harness.exe \
	  > $(TESTERS_DIR)/harness.txt 2>&1; \
	  code=$$?; cat $(TESTERS_DIR)/harness.txt; exit $$code
	env QCHECK_SEED=20260809 ./_build/default/test/test_prop.exe \
	  > $(TESTERS_DIR)/prop.txt 2>&1; \
	  code=$$?; cat $(TESTERS_DIR)/prop.txt; exit $$code
	dune exec bench/main.exe -- --quick --no-timings --only T1,E11 \
	  --json $(TESTERS_DIR)/t1.json
	./_build/default/bin/planartest.exe gen --family grid --n 1024 \
	  > $(TESTERS_DIR)/grid.txt
	./_build/default/bin/planartest.exe gen --family far --n 1024 \
	  --param 0.25 > $(TESTERS_DIR)/far.txt
	./_build/default/bin/planartest.exe gen --family apollonian --n 1024 \
	  > $(TESTERS_DIR)/apollonian.txt
	set -e; for g in grid far apollonian; do for d in 1 4 17; do \
	  ./_build/default/bin/planartest.exe test $(TESTERS_DIR)/$$g.txt \
	    --eps 0.3 --domains $$d --log-level warn \
	    --stats-json $(TESTERS_DIR)/$$g-d$$d.json > /dev/null; \
	  ./_build/default/bin/planarmon.exe compare --no-wall \
	    $(TESTERS_DIR)/$$g-d1.json $(TESTERS_DIR)/$$g-d$$d.json; \
	done; done

# Live-observability gate (also a CI leg).  Four parts:
#   1. kill detection — run with --heartbeat --checkpoint
#      --checkpoint-exit 1 (exit 3 simulates a kill at the first
#      phase-boundary save).  The orphaned heartbeat still says
#      state=running, so `planarmon attach --stall-after` must declare
#      the run dead (exit 1).
#   2. resume provenance — resume from the checkpoint with --heartbeat
#      and --ledger; attach now exits 0 with the verdict.  A second,
#      uninterrupted run appends to the same ledger: its stats JSON is
#      cmp-identical to the resumed one, both records carry one
#      fingerprint and one digest (the engine determinism contract,
#      checked from the provenance trail), and `planarmon history`
#      stays green over them.
#   3. observer-effect matrix — heartbeat-on vs heartbeat-off stats
#      JSON must be cmp-identical across --domains 1/4 x fast-forward
#      on/off (the heartbeat runs host-side from quiescent boundaries,
#      so it must not perturb one simulated byte), and a traced pair
#      must agree under `planartrace diff` (only host wall-clock/GC may
#      differ).
#   4. L1 with its overhead gate: heartbeat publication at the default
#      cadence costs < L1_MAX_OVERHEAD_PCT % wall on the n=2048 grid
#      (L1 also hard-asserts on/off stats identity internally).
LIVE_DIR ?= /tmp/planarlive
L1_MAX_OVERHEAD_PCT ?= 2
live: build
	mkdir -p $(LIVE_DIR)
	rm -f $(LIVE_DIR)/ck.bin $(LIVE_DIR)/runs.jsonl
	./_build/default/bin/planartest.exe gen --family far -n 4000 \
	  --param 0.3 --seed 5 > $(LIVE_DIR)/g.txt
	./_build/default/bin/planartest.exe test $(LIVE_DIR)/g.txt --eps 0.05 \
	  --heartbeat $(LIVE_DIR)/hb.json --checkpoint $(LIVE_DIR)/ck.bin \
	  --checkpoint-exit 1 --log-level warn > /dev/null; test $$? -eq 3
	grep -q '"state":"running"' $(LIVE_DIR)/hb.json
	./_build/default/bin/planarmon.exe attach $(LIVE_DIR)/hb.json \
	  --stall-after 1 --interval 0.2 > /dev/null 2>&1; test $$? -eq 1
	./_build/default/bin/planartest.exe test $(LIVE_DIR)/g.txt --eps 0.05 \
	  --heartbeat $(LIVE_DIR)/hb.json --checkpoint $(LIVE_DIR)/ck.bin \
	  --ledger $(LIVE_DIR)/runs.jsonl \
	  --stats-json $(LIVE_DIR)/resumed.json --log-level warn > /dev/null
	./_build/default/bin/planarmon.exe attach $(LIVE_DIR)/hb.json
	./_build/default/bin/planartest.exe test $(LIVE_DIR)/g.txt --eps 0.05 \
	  --ledger $(LIVE_DIR)/runs.jsonl \
	  --stats-json $(LIVE_DIR)/full.json --log-level warn > /dev/null
	cmp $(LIVE_DIR)/full.json $(LIVE_DIR)/resumed.json
	./_build/default/bin/planarmon.exe history $(LIVE_DIR)/runs.jsonl
	test $$(grep -o '"fingerprint":"[^"]*"' $(LIVE_DIR)/runs.jsonl \
	  | sort -u | wc -l) -eq 1
	test $$(grep -o '"digest":"[0-9a-f]*"' $(LIVE_DIR)/runs.jsonl \
	  | sort -u | wc -l) -eq 1
	./_build/default/bin/planartest.exe gen --family grid --n 256 \
	  > $(LIVE_DIR)/gm.txt
	set -e; for d in 1 4; do for ff in "" "--no-fast-forward"; do \
	  tag="d$$d$${ff:+-noff}"; \
	  ./_build/default/bin/planartest.exe test $(LIVE_DIR)/gm.txt \
	    --eps 0.3 --domains $$d $$ff \
	    --stats-json $(LIVE_DIR)/off-$$tag.json --log-level warn > /dev/null; \
	  ./_build/default/bin/planartest.exe test $(LIVE_DIR)/gm.txt \
	    --eps 0.3 --domains $$d $$ff \
	    --heartbeat $(LIVE_DIR)/hb-m.json --heartbeat-every 64 \
	    --stats-json $(LIVE_DIR)/on-$$tag.json --log-level warn > /dev/null; \
	  cmp $(LIVE_DIR)/off-$$tag.json $(LIVE_DIR)/on-$$tag.json; \
	done; done
	./_build/default/bin/planartest.exe test $(LIVE_DIR)/gm.txt --eps 0.3 \
	  --trace $(LIVE_DIR)/off.ctrace --log-level warn > /dev/null
	./_build/default/bin/planartest.exe test $(LIVE_DIR)/gm.txt --eps 0.3 \
	  --heartbeat $(LIVE_DIR)/hb-m.json --heartbeat-every 64 \
	  --trace $(LIVE_DIR)/on.ctrace --log-level warn > /dev/null
	./_build/default/bin/planartrace.exe diff $(LIVE_DIR)/off.ctrace \
	  $(LIVE_DIR)/on.ctrace
	env L1_MAX_OVERHEAD_PCT=$(L1_MAX_OVERHEAD_PCT) \
	  ./_build/default/bench/main.exe --only L1 \
	  --ledger $(LIVE_DIR)/runs.jsonl --json $(LIVE_DIR)/l1.json

# Benchmark smoke check (also a CI leg): one short perfbench invocation
# per workload.  perfbench/run.py checks every tester run against the
# verdict and Report.Ledger.digest_core pinned for its input and exits
# non-zero on any mismatch (or when it cannot run), so a change to the
# simulated result of any benchmark input fails here.  Nothing is timed
# against a bound: --seconds 1 only keeps the invocations short.
perf-smoke: build
	set -e; for w in grid-peel apollonian-fiber far-reject; do \
	  python3 perfbench/run.py --workload $$w --seconds 1; \
	done

# What CI runs: full build, the whole test suite, every gate above, and
# a quick pass of the experiment harness twice, serial and on 2 domains
# (also validates the --json emitter end to end).  The engine contract
# makes every simulated member of the two documents identical, and
# `planarmon compare --no-wall` gates exactly that (it skips what the
# invocation fixes: the --jobs/--domains echo, M1's per-domain engine
# bytes).  The build-test-bench CI leg runs the same three commands.
ci: build test trace critpath monitor scale testers live perf-smoke
	./_build/default/bench/main.exe --quick --no-timings --domains 1 \
	  --jobs 1 --json /tmp/bench-d1.json > /dev/null
	./_build/default/bench/main.exe --quick --no-timings --domains 2 \
	  --jobs 2 --json /tmp/bench-d2.json > /dev/null
	./_build/default/bin/planarmon.exe compare --no-wall /tmp/bench-d1.json \
	  /tmp/bench-d2.json

clean:
	dune clean
