GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test race vet fmt lint fuzz verify bench-check policy-gate bench-smoke bench city-gate blackout-smoke profile clean chaos cover span-alloc-gate sync-alloc-gate flowsetup-alloc-gate handoff-alloc-gate admit-gate loc

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# fmt fails when any Go file in the tree is not gofmt-clean (the lint
# fixtures are left out: some are malformed on purpose).
fmt:
	@out=$$(gofmt -l . | grep -v '^internal/lint/testdata/'); \
	if [ -n "$$out" ]; then echo "gofmt -l names:"; echo "$$out"; exit 1; fi

# lint runs the softcell-lint invariant checkers (DESIGN.md §9): lock
# discipline and ordering, hot-path alloc/lock freedom (cross-checked
# against compiler escape analysis), atomic publication, determinism,
# layering, dead exports, dropped errors. The machine-readable report
# (including suppressed findings and every //lint:ignore) lands in
# results/lint.json.
lint:
	$(GO) run ./cmd/softcell-lint -escape -json results/lint.json ./...

# fuzz gives each wire-codec fuzz target a short budget (the seed corpora
# under testdata/fuzz also run on every plain `go test`).
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzEncodeDecode$$' -fuzztime $(FUZZTIME) ./internal/packet
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshal$$' -fuzztime $(FUZZTIME) ./internal/packet
	$(GO) test -run '^$$' -fuzz '^FuzzEncodeDecode$$' -fuzztime $(FUZZTIME) ./internal/ctrlproto
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime $(FUZZTIME) ./internal/ctrlproto
	$(GO) test -run '^$$' -fuzz '^FuzzWireCodec$$' -fuzztime $(FUZZTIME) ./internal/ctrlproto
	$(GO) test -run '^$$' -fuzz '^FuzzMatch$$' -fuzztime $(FUZZTIME) ./internal/switchsim
	$(GO) test -run '^$$' -fuzz '^FuzzBurstEquivalence$$' -fuzztime $(FUZZTIME) ./internal/fastpath
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshotReuse$$' -fuzztime $(FUZZTIME) ./internal/fastpath
	$(GO) test -run '^$$' -fuzz '^FuzzIndex$$' -fuzztime $(FUZZTIME) ./internal/cowindex

# chaos runs a long seeded fault-injection soak (DESIGN.md §11). The
# fixed-seed smoke run is part of tier-1 (`go test -race ./internal/chaos`
# inside verify); this target is the extended schedule.
chaos:
	$(GO) run ./cmd/softcell-bench -mode chaos -seed 1 -events 5000 \
		-json results/BENCH_chaos.json

# cover enforces the checked-in statement-coverage floor for the packages
# whose invariants the chaos harness and the data plane's sync lean on, for
# the plant builder every harness stands on, for the control channel and
# the local agent at its far end, for the copy-on-write index its snapshot
# and the fast path's microflows live in and the dirty sets Sync and Warm
# drain, for the §5.2 store, for the topology and
# planner whose canonical descend every location rule and shortcut route
# follows, and for the packet codecs, policy compiler and middleboxes every
# forwarded packet passes through.
# Raise the baseline in results/coverage_baseline.txt when coverage grows;
# verify fails if a change drops below it.
cover:
	@for pkg in internal/agent internal/core internal/cowindex internal/ctrlproto internal/dirty internal/dataplane internal/fastpath internal/mbox internal/obs internal/packet internal/plant internal/policy internal/routing internal/shard internal/store internal/switchsim internal/topo; do \
		pct=$$($(GO) test -cover ./$$pkg | awk '{for (i=1;i<=NF;i++) if ($$i == "coverage:") {sub(/%/,"",$$(i+1)); print $$(i+1)}}'); \
		base=$$(awk -v p="repro/$$pkg" '$$1 == p {print $$2}' results/coverage_baseline.txt); \
		if [ -z "$$pct" ] || [ -z "$$base" ]; then echo "cover: no coverage or baseline for $$pkg"; exit 1; fi; \
		echo "coverage $$pkg: $$pct% (baseline $$base%)"; \
		if [ "$$(awk -v c="$$pct" -v b="$$base" 'BEGIN {print (c+0 >= b+0) ? 1 : 0}')" != "1" ]; then \
			echo "FAIL: $$pkg coverage $$pct% fell below the $$base% baseline"; exit 1; \
		fi; \
	done

# verify is the gate every change must pass.
verify:
	$(MAKE) fmt
	$(GO) vet ./...
	$(GO) run ./cmd/softcell-lint -escape -json results/lint.json ./...
	$(GO) build ./...
	$(MAKE) bench-check
	$(MAKE) policy-gate
	$(GO) test -race ./...
	$(MAKE) cover
	$(MAKE) span-alloc-gate
	$(MAKE) sync-alloc-gate
	$(MAKE) flowsetup-alloc-gate
	$(MAKE) handoff-alloc-gate
	$(MAKE) admit-gate
	$(MAKE) bench-smoke
	$(MAKE) city-gate
	$(MAKE) blackout-smoke

# bench-check compiles and tests the repository benchmark. bench/ is a
# nested module (repro/bench, `replace repro => ../`), so `./...` from the
# root never reaches it: without this step a change to an API the
# benchmark calls breaks it silently.
bench-check:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# policy-gate is §5.1 checked end to end by the repository benchmark as it
# stands: the mobility workload for 3 s, traced so the per-layer counters
# print. It fails unless every op succeeded, the run's own correctness check
# held, and no old flow reached its UE past a middlebox its opening crossed
# (mbox.old_flow_bypasses; 447 in 10 s while route-switch overrides matched
# any port).
policy-gate:
	@out=$$(bash bench/run.sh --workload e2e_mobility --seed 1 --seconds 3 --trace 1 | tail -n 1); \
	for want in '"correct":true,' '"failed":0,' '"mbox.old_flow_bypasses":{"value":0,'; do \
		case "$$out" in *"$$want"*) ;; *) echo "FAIL: policy-gate: the result line lacks $$want"; echo "$$out"; exit 1;; esac; \
	done; \
	echo "policy-gate: e2e_mobility failed=0 correct=true mbox.old_flow_bypasses=0"

# city-gate is §6.1 checked end to end by the repository benchmark: the
# city_churn workload (the §6.1 event stream on a sharded plant) for 3 s.
# It fails unless every op succeeded and the run's own correctness check
# held, which sweeps the cross-shard invariants (Dispatcher.CheckInvariants),
# unless the fullest hardware switch (rule_table_max) holds at most 240
# rules: each shard owns one contiguous run of station blocks, so its
# location prefixes aggregate (219 expected), and unless the live heap per
# subscriber (bytes_per_subscriber) is at most 545 B, so memory cannot creep
# up change by change inside each step's 5 % bound. At this 3 s run it read
# 514-519 B with the IMSI index in each controller's UE table and 518-524 B
# with the record's slot in the subscriber table (six runs each).
city-gate:
	@out=$$(bash bench/run.sh --workload city_churn --seed 1 --seconds 3 --trace 0 | tail -n 1); \
	for want in '"correct":true,' '"failed":0,'; do \
		case "$$out" in *"$$want"*) ;; *) echo "FAIL: city-gate: the result line lacks $$want"; echo "$$out"; exit 1;; esac; \
	done; \
	rules=$$(printf '%s\n' "$$out" | sed -n 's/.*"rule_table_max":{"value":\([0-9.e+]*\).*/\1/p'); \
	if [ -z "$$rules" ]; then echo "FAIL: city-gate: the result line has no rule_table_max"; echo "$$out"; exit 1; fi; \
	if ! awk -v r="$$rules" 'BEGIN { exit !(r <= 240) }'; then \
		echo "FAIL: city-gate: rule_table_max $$rules exceeds 240"; exit 1; \
	fi; \
	bps=$$(printf '%s\n' "$$out" | sed -n 's/.*"bytes_per_subscriber":{"value":\([0-9.e+]*\).*/\1/p'); \
	if [ -z "$$bps" ]; then echo "FAIL: city-gate: the result line has no bytes_per_subscriber"; echo "$$out"; exit 1; fi; \
	if ! awk -v b="$$bps" 'BEGIN { exit !(b <= 545) }'; then \
		echo "FAIL: city-gate: bytes_per_subscriber $$bps exceeds 545"; exit 1; \
	fi; \
	echo "city-gate: city_churn failed=0 correct=true rule_table_max=$$rules (<= 240) bytes_per_subscriber=$$bps (<= 545)"

# bench-smoke runs every Go benchmark for 500 iterations, so one that
# cannot get that far (a fixture that exhausts a tag space, say) fails the
# gate instead of rotting until someone next wants its number.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 500x ./internal/...

# span-alloc-gate pins the tracing tax on the unsampled hot path: the
# not-sampled span branch must stay at 0 allocs/op (DESIGN.md §16), on
# top of the hotpath lint annotations the lint step already cross-checks.
span-alloc-gate:
	@out=$$($(GO) test -run '^$$' -bench '^BenchmarkSpanNotSampled$$' -benchmem ./internal/obs); \
	echo "$$out"; \
	allocs=$$(echo "$$out" | awk '/BenchmarkSpanNotSampled/ {for (i=1;i<=NF;i++) if ($$i == "allocs/op") print $$(i-1)}'); \
	if [ -z "$$allocs" ]; then echo "span-alloc-gate: benchmark produced no allocs/op figure"; exit 1; fi; \
	if [ "$$allocs" != "0" ]; then echo "FAIL: not-sampled span path allocates ($$allocs allocs/op, want 0)"; exit 1; fi; \
	echo "span-alloc-gate: not-sampled span path is allocation free"

# sync-alloc-gate pins what the Sync after a handoff allocates: it splices
# the shortcuts into the switches they touch, each splice writing the
# switch's TCAM into one new slice of 40 B entries (the snapshot before
# keeps the sealed one), and the recompiles take each switch's sealed
# tables as they are; a handoff cuts shortcuts only for the clauses the
# UE's classifiers allow. So BenchmarkSyncAfterHandoff must stay at or
# under 12 800 B/op and 23 allocs/op (11.0 kB and 21 allocs measured, so a
# margin of about a sixth and 2 allocs; 11.9 kB and 28 allocs under 13 700
# B / 30 allocs while recompiles replayed a TCAM change log on the fast
# path's own compiled copy, 24.9 kB while each recompile copied the whole
# TCAM, 31.7 kB and 35 allocs while every path at the old station got a
# shortcut, 74.5 kB while every changed switch was rebuilt and recompiled
# whole).
sync-alloc-gate:
	@out=$$($(GO) test -run '^$$' -bench '^BenchmarkSyncAfterHandoff$$' -benchmem ./internal/dataplane); \
	echo "$$out"; \
	bytes=$$(echo "$$out" | awk '/BenchmarkSyncAfterHandoff/ {for (i=1;i<=NF;i++) if ($$i == "B/op") print $$(i-1)}'); \
	allocs=$$(echo "$$out" | awk '/BenchmarkSyncAfterHandoff/ {for (i=1;i<=NF;i++) if ($$i == "allocs/op") print $$(i-1)}'); \
	if [ -z "$$bytes" ] || [ -z "$$allocs" ]; then echo "sync-alloc-gate: benchmark produced no B/op or allocs/op figure"; exit 1; fi; \
	if [ "$$bytes" -gt 12800 ]; then echo "FAIL: the Sync after a handoff allocates $$bytes B/op (limit 12800)"; exit 1; fi; \
	if [ "$$allocs" -gt 23 ]; then echo "FAIL: the Sync after a handoff makes $$allocs allocs/op (limit 23)"; exit 1; fi; \
	echo "sync-alloc-gate: the Sync after a handoff allocates $$bytes B/op (limit 12800) in $$allocs allocs/op (limit 23)"

# flowsetup-alloc-gate pins that a flow's cost does not grow with the flows
# already resident: the access switch writes a new flow's two microflows,
# and their removal, into its copy-on-write index, copying only the 384 B
# pages a published snapshot still shares (or laying the index out again
# once a quarter of its pages are copies), and the Syncs after take the
# index as it is, so BenchmarkFlowSetup, which times the set-up and
# tear-down pair, must stay at or under 7 500 B/op at 512 resident
# microflows (6 020 B measured, so a margin of about a quarter; 7.23-7.43
# kB under a 9 000 B bound while the fast path patched its own compiled
# copy of the index; before the benchmark timed the tear-down too, the
# bound was 3 000 B/op on the set-up alone (2.45-2.72 kB, or 5.0 kB when
# the set-up's patch landed the index's amortised relayout; 12.3 kB with
# 1 152 B pages holding their rules inline, 135 kB while every set-up
# recompiled the whole index)).
flowsetup-alloc-gate:
	@out=$$($(GO) test -run '^$$' -bench '^BenchmarkFlowSetup$$' -benchmem ./internal/dataplane); \
	echo "$$out"; \
	bytes=$$(echo "$$out" | awk '/BenchmarkFlowSetup\/microflows=512/ {for (i=1;i<=NF;i++) if ($$i == "B/op") print $$(i-1)}'); \
	if [ -z "$$bytes" ]; then echo "flowsetup-alloc-gate: benchmark produced no B/op figure at 512 microflows"; exit 1; fi; \
	if [ "$$bytes" -gt 7500 ]; then echo "FAIL: a flow set-up and tear-down at 512 resident microflows allocate $$bytes B/op (limit 7500)"; exit 1; fi; \
	echo "flowsetup-alloc-gate: a flow set-up and tear-down at 512 resident microflows allocate $$bytes B/op (limit 7500)"

# handoff-alloc-gate pins what one whole Network.Handoff of a UE with
# established flows allocates on the warmed generated plant: the controller
# move, the agents' admission and flow migration (one microflow write per
# access switch), and the Sync whose splices copy each touched switch's
# TCAM once and whose recompiles take the sealed tables as they are.
# BenchmarkHandoff must stay at or under 28 400 B/op and 70 allocs/op
# (23.7 kB and 68 allocs measured, so a margin of about a fifth and 2
# allocs; 25.6 kB and 76 allocs under 31 000 B / 78 allocs while the fast
# path replayed a TCAM change log on its own compiled copy and the agents
# moved flows one write at a time, 30.3 kB and 74 allocs while the fast
# path compiled the flows into its own index, 34.3 kB and 100 allocs while
# each agent derive cloned its snapshot's maps, 87.1 kB and 111 allocs
# before the change log).
handoff-alloc-gate:
	@out=$$($(GO) test -run '^$$' -bench '^BenchmarkHandoff$$' -benchmem ./internal/dataplane); \
	echo "$$out"; \
	bytes=$$(echo "$$out" | awk '/BenchmarkHandoff/ {for (i=1;i<=NF;i++) if ($$i == "B/op") print $$(i-1)}'); \
	allocs=$$(echo "$$out" | awk '/BenchmarkHandoff/ {for (i=1;i<=NF;i++) if ($$i == "allocs/op") print $$(i-1)}'); \
	if [ -z "$$bytes" ] || [ -z "$$allocs" ]; then echo "handoff-alloc-gate: benchmark produced no B/op or allocs/op figure"; exit 1; fi; \
	if [ "$$bytes" -gt 28400 ]; then echo "FAIL: a handoff allocates $$bytes B/op (limit 28400)"; exit 1; fi; \
	if [ "$$allocs" -gt 70 ]; then echo "FAIL: a handoff makes $$allocs allocs/op (limit 70)"; exit 1; fi; \
	echo "handoff-alloc-gate: a handoff allocates $$bytes B/op (limit 28400) in $$allocs allocs/op (limit 70)"

# admit-gate pins that an attach's agent admission costs what it changes,
# not what the station holds: AdmitUE derives a successor snapshot that
# copies only the index pages (and directory nodes) it writes, so
# BenchmarkAdmitUE must make at most 10 allocs/op at 64, 512 and 4 096
# residents (8, 8 and 9 measured), and allocate at 4 096 residents at most
# 1.5 times its B/op at 64 (1 120 and 968 B measured, 1.16 times; 224 kB
# and 3.9 kB, 57 times, while each derive cloned the snapshot's maps). The
# times print beside them: 0.40-0.74 us from 64 to 4 096 residents, 4.4 to
# 330 us before on the same host.
admit-gate:
	@out=$$($(GO) test -run '^$$' -bench '^BenchmarkAdmitUE$$' -benchmem ./internal/agent); \
	echo "$$out"; \
	field() { echo "$$out" | awk -v s="resident=$$1-" -v u="$$2" 'index($$1, s) {for (i=1;i<=NF;i++) if ($$i == u) print $$(i-1)}'; }; \
	for n in 64 512 4096; do \
		allocs=$$(field $$n allocs/op); \
		if [ -z "$$allocs" ]; then echo "admit-gate: benchmark produced no allocs/op figure at $$n residents"; exit 1; fi; \
		if [ "$$allocs" -gt 10 ]; then echo "FAIL: AdmitUE at $$n residents makes $$allocs allocs/op (limit 10)"; exit 1; fi; \
	done; \
	small=$$(field 64 B/op); big=$$(field 4096 B/op); \
	if [ -z "$$small" ] || [ -z "$$big" ]; then echo "admit-gate: benchmark produced no B/op figure"; exit 1; fi; \
	if ! awk -v s="$$small" -v b="$$big" 'BEGIN { exit !(b <= 1.5 * s) }'; then \
		echo "FAIL: AdmitUE allocates $$big B/op at 4096 residents, more than 1.5 times its $$small B/op at 64"; exit 1; \
	fi; \
	echo "admit-gate: AdmitUE allocates $$small B/op at 64 residents and $$big B/op at 4096 (limit 1.5 times), at most 10 allocs/op at every size; ns/op $$(field 64 ns/op) / $$(field 512 ns/op) / $$(field 4096 ns/op)"

# blackout-smoke is the agent-survivability gate (DESIGN.md §15): the
# control plane goes dark for 30 sim-seconds under live traffic, and the
# run fails on any verdict flip, dropped microflow, accepted stale
# snapshot, or reconciliation divergence. The -race half of the same
# invariant runs in tier-1 as TestBlackoutContinuity; this target produces
# the CI artifact.
blackout-smoke:
	$(GO) run ./cmd/softcell-bench -mode blackout -seed 1 -outage-ticks 30000 \
		-json results/BENCH_blackout.json

# bench regenerates the committed controller sweep (§6.2): human-readable
# table on stdout, machine-readable results/BENCH_controller.json on disk.
bench:
	$(GO) run ./cmd/softcell-bench -mode controller -agents 16 -duration 1s \
		-json results/BENCH_controller.json | tee results/bench_controller.txt

# profile captures CPU and heap profiles of the controller hot path via the
# Go benchmarks (DESIGN.md §10). Inspect with `go tool pprof results/cpu.pprof`.
profile:
	$(GO) test -run '^$$' -bench 'BenchmarkRequestPath' -benchtime 2s \
		-cpuprofile results/cpu.pprof -memprofile results/mem.pprof \
		-o results/core.test ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkObsOverhead' -benchmem \
		-o results/obs.test ./internal/obs | tee results/bench_obs.txt

# loc prints the non-test Go line count per top-level directory (per
# package under internal/) and in total, leaving out the benchmark module
# and the lint fixtures: the numbers a simplification quotes before and
# after.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' \
		! -path './internal/lint/testdata/*' -print0 | xargs -0 wc -l | \
		awk '$$2 != "total" { n = split($$2, p, "/"); \
			d = n > 3 && p[2] == "internal" ? p[2] "/" p[3] : n > 2 ? p[2] : "(root)"; by[d] += $$1; t += $$1 } \
			END { for (d in by) printf "%7d  %s\n", by[d], d; printf "%7d  total\n", t }' | sort -k2

clean:
	$(GO) clean ./...
