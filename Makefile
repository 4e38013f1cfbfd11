# Stdlib-only Go module; every target needs nothing but the go toolchain.

GO ?= go

.PHONY: all build test race vet fmt-check transport-deps bench bench-engine bench-fault fuzz smoke-engine sharded-quick golden-full golden-examples recovery-quick oracle-quick families-quick transport-quick soak-quick launch-seeds perfbench-check q14-smoke verify

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Formatting gate: fails, listing the files, when gofmt would rewrite
# any Go file in the tree.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "fmt-check: gofmt -l lists files that need gofmt -w:"; echo "$$out"; exit 1; \
	fi

# Wire-layer dependency gate: internal/transport is frames, endpoints
# and retry only. Its frames carry no route (every node takes a copy's
# next hop from the IHC schedule), and it must import neither the
# simulator nor the schedule, repair or protocol packages built on top
# of it. Fails, naming them, when `go list -deps` finds any.
transport-deps:
	@deps=$$($(GO) list -deps ./internal/transport) || exit 1; \
	bad=$$(echo "$$deps" | grep -xE 'ihc/internal/(simnet|core|repair|reliable|stream|cluster|chaos)'); \
	if [ -n "$$bad" ]; then \
		echo "transport-deps: internal/transport must not depend on:"; echo "$$bad"; exit 1; \
	fi; \
	echo "transport-deps: internal/transport depends on none of simnet, core, repair, reliable, stream, cluster, chaos"

bench:
	$(GO) test -bench=. -benchmem

# Re-measure the engine's headline Q10 ATA microbenchmark at GOMAXPROCS
# 1 and record events/sec, ns/event, allocs/event, and live-heap
# footprint (with the pre-flat-array baseline for comparison) in
# BENCH_engine.json, the repair-on figure (100 repaired Q6 placements:
# ns/event, bytes and allocs per placement, beside the delivery-log
# grader's), plus the multi-core scaling series at 1/2/4/8
# engine workers: point w runs at GOMAXPROCS w, so the engine drains the
# stages' arc-disjoint directed cycles on up to w goroutines (each point
# re-checks event-count determinism against the one-worker run and is
# annotated cores_limited when the host has fewer than w CPUs).
bench-engine:
	$(GO) run ./cmd/enginebench -o BENCH_engine.json -engine-workers 1,2,4,8

# Run the adversarial fault campaign over sq4,q4,q6,h3 and record the
# measured tolerance frontier per topology plus campaign throughput
# (placements/s) in BENCH_fault.json. Exits non-zero if any placement
# at or under the paper's link-domain bounds breaks delivery.
bench-fault:
	$(GO) run ./cmd/faultcamp -o BENCH_fault.json

# Short fuzz smoke over the voter, the MAC verify path, the
# temporal-plan validator/compiler (the spots that take adversarial
# bytes or adversarial plans), the metrics merge (worker-count
# independence of the observability aggregates), the calendar queue
# (differential pop-order equivalence against the reference heap), the
# transport wire codec (decode never panics, accepted frames re-encode
# canonically), the stream node's pull planner (differential equivalence
# against the scan-based reference, retry times included), the stream
# node's frame handling (validly signed or unsigned hostile frames never
# panic it, never make it send to a non-neighbor, never move its next
# epoch back), the epoch-batch count helper (fails exactly when the
# decoder does, and otherwise agrees with it), and the decomposition registry
# (family constructors never panic on arbitrary parameters; valid
# instances build and their names round-trip), mirroring the CI budget.
fuzz:
	$(GO) test -fuzz=FuzzVoteUnsigned -fuzztime=15s ./internal/reliable
	$(GO) test -fuzz=FuzzKeyringVerify -fuzztime=15s ./internal/reliable
	$(GO) test -fuzz=FuzzTemporalPlan -fuzztime=15s ./internal/fault
	$(GO) test -fuzz=FuzzMetricsMerge -fuzztime=15s ./internal/observe
	$(GO) test -fuzz=FuzzCalendarQueue -fuzztime=15s ./internal/simnet
	$(GO) test -fuzz=FuzzFrameDecode -fuzztime=15s ./internal/transport
	$(GO) test -fuzz=FuzzPlanner -fuzztime=15s ./internal/stream
	$(GO) test -fuzz=FuzzNodeHandle -fuzztime=15s ./internal/stream
	$(GO) test -fuzz=FuzzBatchCount -fuzztime=15s ./internal/stream
	$(GO) test -fuzz=FuzzFamilyParams -fuzztime=15s ./internal/hamilton

# Engine-regression smoke: one measured Q10 ATA run; fails if
# allocs/event exceeds 10x, or ns/event exceeds 1.15x (best of three
# runs, damping single-run noise), the values recorded in
# BENCH_engine.json — the event loop must stay allocation-free and
# calendar-queue fast even with the repair controller layer compiled in.
# Then 100 repaired Q6 placements; fails if bytes per placement exceed
# 1.5x, or ns/event 1.15x (best of three), the recorded repair-on figure.
smoke-engine:
	$(GO) run ./cmd/enginebench -quick -check -o /dev/null

# Quick pool- and engine-width equivalence: the whole quick suite, once
# at GOMAXPROCS=1 (experiments, sweep points and each run's engine all
# on one goroutine) and once at GOMAXPROCS=4, where the pool runs four
# experiments and four sweep points at a time and the scaling
# experiment's quick SQ16 point (~130,000 hops and 4 components per
# stage) drains each stage's arc-disjoint directed cycles on 4
# goroutines, must render byte-identical tables (stderr carries the
# wall-clock line and is discarded); then the engine
# equivalence/aliasing tests re-run under the race detector, also at
# GOMAXPROCS=4, including the component identity matrices and the
# check of what holds a run on one goroutine.
sharded-quick:
	@tmp=$$(mktemp -d); \
	GOMAXPROCS=1 $(GO) run ./cmd/ihcbench -quick >$$tmp/seq.txt 2>/dev/null; \
	GOMAXPROCS=4 $(GO) run ./cmd/ihcbench -quick >$$tmp/par.txt 2>/dev/null; \
	if cmp -s $$tmp/seq.txt $$tmp/par.txt; then \
		echo "sharded-quick: GOMAXPROCS=4 output byte-identical to GOMAXPROCS=1"; rm -rf $$tmp; \
	else \
		echo "sharded-quick: GOMAXPROCS=4 output DIVERGED from GOMAXPROCS=1:"; \
		diff $$tmp/seq.txt $$tmp/par.txt; rm -rf $$tmp; exit 1; \
	fi
	$(GO) test -race -run 'Sharded|Components|ScratchReuse|CompiledPath|BackgroundSeed|Ledger|CalQueue' ./internal/simnet ./internal/core
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'Sharded|Components|Ledger' ./internal/simnet ./internal/core

# Full-size table regression, outside verify: render every experiment
# at full size (`ihcbench` without -quick, about half a minute) and
# compare its stdout byte for byte with the committed golden file
# (TestGoldenOutput pins the quick tables). A change meant to alter a
# table records the new file in the same commit.
GOLDEN_FULL := internal/harness/testdata/ihcbench_full.golden
golden-full:
	@tmp=$$(mktemp); \
	if ! $(GO) run ./cmd/ihcbench >$$tmp 2>/dev/null; then rm -f $$tmp; echo "golden-full: ihcbench failed"; exit 1; fi; \
	if cmp -s $$tmp $(GOLDEN_FULL); then \
		echo "golden-full: full ihcbench stdout matches $(GOLDEN_FULL)"; rm -f $$tmp; \
	else \
		echo "golden-full: full ihcbench stdout differs from $(GOLDEN_FULL):"; \
		diff $(GOLDEN_FULL) $$tmp | head -40; rm -f $$tmp; exit 1; \
	fi

# Library-surface regression: run every example under examples/ and
# compare its stdout byte for byte with examples/testdata/<name>.golden
# (fault draws, grades and tables the example prints). An example that
# exits non-zero, or has no golden file, fails too. A change meant to
# alter an example's output records the new file in the same commit.
EXAMPLES := $(patsubst examples/%/main.go,%,$(wildcard examples/*/main.go))
golden-examples:
	@tmp=$$(mktemp -d); status=0; \
	for e in $(EXAMPLES); do \
		if ! $(GO) run ./examples/$$e >$$tmp/$$e.out 2>$$tmp/$$e.err; then \
			echo "golden-examples: example $$e failed:"; cat $$tmp/$$e.err; status=1; \
		elif cmp -s $$tmp/$$e.out examples/testdata/$$e.golden; then \
			echo "golden-examples: $$e stdout matches examples/testdata/$$e.golden"; \
		else \
			echo "golden-examples: $$e stdout differs from examples/testdata/$$e.golden:"; \
			diff examples/testdata/$$e.golden $$tmp/$$e.out | head -20; status=1; \
		fi; \
	done; rm -rf $$tmp; exit $$status

# Quick self-healing sweep: the repaired broken-link frontier must beat
# the static γ bound on every topology (exits non-zero otherwise).
recovery-quick:
	$(GO) run ./cmd/ihcbench -quick -run recovery

# Quick oracle sweep: the live theorem checker verifies contention-
# freeness / occupancy / routes / exact finishes on the small
# topologies (η >= μ must pass, η < μ must be flagged), then one
# deliberate η < μ strict run that MUST exit non-zero — proving the
# checker fails loudly, not silently.
oracle-quick:
	$(GO) run ./cmd/ihcbench -quick -run contention
	@if $(GO) run ./cmd/atasim -net SQ4 -algo ihc -eta 1 -oracle-strict >/dev/null 2>&1; then \
		echo "oracle-quick: strict oracle FAILED to reject an η < μ run"; exit 1; \
	else \
		echo "oracle-quick: strict oracle correctly rejected the η < μ run"; \
	fi

# Quick family-registry gate: the cross-family conformance suite
# (every registered family's instances through build validity, static
# contention-freeness, exact live-oracle finish and γ-copy
# postcondition), the same instances' multi-worker byte-identity
# (internal/simnet, which can force the engine's width), one quick
# adversarial campaign point on the new families (TQ4 + the 4-ary
# 2-torus), and the quick `families` experiment (IHC finish vs the
# Table II closed form on twisted cubes and vs the Jung-Sakho per-link
# load bound on k-ary tori).
families-quick:
	$(GO) test -count=1 -run TestCrossFamilyConformance ./internal/hamilton
	$(GO) test -count=1 -run TestComponentsIdenticalRegistry ./internal/simnet
	$(GO) run ./cmd/faultcamp -quick -topo tq4,kt4x2 -o /dev/null
	$(GO) run ./cmd/ihcbench -quick -run families

# Counters-only Q14 full-ATA smoke: the paper-scale memory-boundedness
# check. The O(N) copy ledger replaces both the O(N²) matrix and the
# O(events) delivery log, so the ~3.8e9-event run holds a bounded
# resident heap (reported on exit) while still verifying the exact
# γ-copies Theorem 4 postcondition. Takes a few minutes of single-core
# time; deliberately not part of `verify`.
q14-smoke:
	$(GO) run ./cmd/atasim -net Q14 -algo ihc -eta 2 -ledger

# Real-transport smoke: first the transport/cluster/repair/stream unit
# tests under the race detector (jittered backoff, breaker transitions,
# the peer-dies-and-reconnects NAK path, the one cluster harness's
# loopback + TCP chaos rounds and streams — every round a one-epoch
# stream.Node — and the streaming node's store and pull planner, which
# times each missing copy's retries from its own attempt count), then the
# multi-process check — `ihcd -launch` boots 8 real ihcd daemons as
# separate OS processes on a Q3 overlay with a socket-level chaos proxy
# on every link, SIGKILLs node 6 mid-round, partitions link {1,3}, and
# requires every survivor's counters-only ledger to show the exact
# γ-copy postcondition, a delivery multiset equal to the discrete-event
# engine's (cluster.CompareWithSimnet), and a clean (exit 0) SIGTERM
# shutdown; the -faultfree leg runs the same checks with no faults and
# prints the multiset match.
transport-quick:
	$(GO) test -race -count=1 ./internal/transport ./internal/cluster ./internal/repair ./internal/hlc ./internal/stream
	$(GO) run ./cmd/ihcd -launch
	$(GO) run ./cmd/ihcd -launch -faultfree

# Quick streaming soak (≤60s wall, usually ~4s): a Q3 loopback cluster
# streams 24 pipelined epochs through the bounded ingress queues while
# the chaos layer drops/dups/corrupts/delays frames, node 6 is killed
# mid-stream and cold-restarts into the epoch-resume handshake, and
# link {1,3} is partitioned for a window. The verdict requires every
# survivor to hold the exact γ-copy ledger postcondition on every
# epoch, the rejoiner to catch up all missed epochs, zero
# high-priority sheds, and no node above stream.MaxInflight live
# epochs; the watchdog turns a hang into exit 4 instead of a stuck CI
# job.
soak-quick:
	$(GO) run ./cmd/ihcd -soak -deadline 60s

# Launch reliability, outside verify: build ihcd once, run the chaos
# `ihcd -launch` REPEAT times at every seed in SEEDS, print each seed's
# tally and the total, keep every failing launch's log in a temporary
# directory (named on exit) and exit non-zero if any launch failed.
# Chaos launches are timing-sensitive, so read every failing log, e.g.
#   make launch-seeds REPEAT=100
#   make launch-seeds SEEDS="$(seq 101 120)" REPEAT=1
SEEDS ?= 99
REPEAT ?= 10
launch-seeds:
	@tmp=$$(mktemp -d); $(GO) build -o $$tmp/ihcd ./cmd/ihcd || exit 1; \
	total=0; failed=0; \
	for s in $(SEEDS); do pass=0; \
		for i in $$(seq $(REPEAT)); do total=$$((total+1)); log=$$tmp/seed$$s-$$i.log; \
			if $$tmp/ihcd -launch -seed $$s -deadline 60s >$$log 2>&1; then pass=$$((pass+1)); rm $$log; \
			else failed=$$((failed+1)); fi; \
		done; \
		echo "launch-seeds: seed $$s: $$pass of $(REPEAT) passed"; \
	done; \
	echo "launch-seeds: $$((total-failed)) of $$total chaos launches passed"; \
	rm $$tmp/ihcd; \
	if [ $$failed -gt 0 ]; then echo "launch-seeds: failing logs in $$tmp"; exit 1; fi; \
	rmdir $$tmp

# The benchmark (perfbench/) is a module of its own, so `go build ./...`
# and `go test ./...` never compile it: vet it and run its self-test
# here, so an engine change that breaks its imports fails before the
# benchmark pipeline runs it.
perfbench-check:
	$(GO) -C perfbench vet .
	$(GO) -C perfbench test .

# The tier-1 gate: vet + the gofmt check + the wire-layer dependency
# gate + build + tests, then the same tests under the race detector
# (the parallel sweep executor must stay race-clean), then the
# engine-allocation smoke, the multi-worker engine
# equivalence smoke, the examples' stdout against their golden files,
# the quick recovery sweep, the quick oracle sweep,
# the quick family-registry gate, the real-transport multi-process
# smoke, the streaming chaos soak, and the benchmark's build and
# self-test.
verify: vet fmt-check transport-deps build test race smoke-engine sharded-quick golden-examples recovery-quick oracle-quick families-quick transport-quick soak-quick perfbench-check
