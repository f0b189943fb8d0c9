GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test race vet fmt lint fuzz verify bench-check policy-gate bench-smoke bench bench-city city-smoke blackout-smoke profile clean chaos cover span-alloc-gate loc

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
# layering, wire-safety, dropped errors. The machine-readable report
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

# chaos runs a long seeded fault-injection soak (DESIGN.md §11). The
# fixed-seed smoke run is part of tier-1 (`go test -race ./internal/chaos`
# inside verify); this target is the extended schedule.
chaos:
	$(GO) run ./cmd/softcell-bench -mode chaos -seed 1 -events 5000 \
		-json results/BENCH_chaos.json

# cover enforces the checked-in statement-coverage floor for the packages
# whose invariants the chaos harness and the data plane's sync lean on, for
# the plant builder every harness stands on, for the control channel, for
# the §5.2 store, and for the topology and planner whose canonical descend
# every location rule and shortcut route follows.
# Raise the baseline in results/coverage_baseline.txt when coverage grows;
# verify fails if a change drops below it.
cover:
	@for pkg in internal/core internal/ctrlproto internal/dataplane internal/fastpath internal/obs internal/plant internal/routing internal/shard internal/store internal/switchsim internal/topo; do \
		pct=$$($(GO) test -cover ./$$pkg | awk '{for (i=1;i<=NF;i++) if ($$i == "coverage:") {sub(/%/,"",$$(i+1)); print $$(i+1)}}'); \
		base=$$(awk -v p="repro/$$pkg" '$$1 == p {print $$2}' results/coverage_baseline.txt); \
		if [ -z "$$pct" ] || [ -z "$$base" ]; then echo "cover: no coverage or baseline for $$pkg"; exit 1; fi; \
		echo "coverage $$pkg: $$pct% (baseline $$base%)"; \
		if [ "$$(awk -v c="$$pct" -v b="$$base" 'BEGIN {print (c+0 >= b+0) ? 1 : 0}')" != "1" ]; then \
			echo "FAIL: $$pkg coverage $$pct% fell below the $$base% baseline"; exit 1; \
		fi; \
	done

# verify is the gate every change must pass. The city smoke at the end is
# the scaled-down §6.1 soak (48 stations, 20k UEs): it exercises the same
# workload generator, shard fan-out, and memory accounting as bench-city
# and fails on op errors or invariant violations.
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
	$(MAKE) bench-smoke
	$(MAKE) city-smoke
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

# city-smoke is bench-city shrunk to CI scale: same code path end to end,
# seconds instead of minutes. The report lands next to the full soak's so
# CI can archive it, along with the span critical-path attribution
# (sampled 1-in-64 so a short smoke still collects a real waterfall).
city-smoke:
	$(GO) run ./cmd/softcell-bench -mode city -stations 48 -ues 20000 -shards 2 \
		-sim-seconds 30 -trace-sample 64 -attr \
		-attr-json results/ATTR_city_smoke.json -json results/BENCH_city_smoke.json

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

# bench-city regenerates the committed city-scale soak (§6.1 at full
# width): 1536 base stations, 1M registered subscribers, a multi-minute
# sustained arrival/handoff/bearer schedule, and the memory report
# (live-heap bytes per UE).
bench-city:
	$(GO) run ./cmd/softcell-bench -mode city -soak 3m \
		-json results/BENCH_city.json | tee results/bench_city.txt

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
