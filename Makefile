# Local mirror of .github/workflows/ci.yml: `make ci` runs the same
# lint + test + bench-smoke gates the workflow does, so a green local
# run means a green pipeline.

GO ?= go

# The bench-smoke job in .github/workflows/ci.yml runs `make bench`.
BENCH_PATTERN := BenchmarkSingleFlow|BenchmarkReceiveBatch|BenchmarkManyFlows|BenchmarkWorkerScaling|BenchmarkTelemetryOverhead
BENCH_PKGS    := ./internal/softswitch ./internal/softswitch/runtime

SHELL := /bin/bash -o pipefail

.PHONY: all lint loc fuzz-smoke test bench fleetsim-smoke migrate-smoke ci

all: ci

# Keep in sync with the staticcheck step in .github/workflows/ci.yml.
STATICCHECK_VERSION := 2024.1.1

lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; fi
	$(MAKE) fuzz-smoke
	$(MAKE) loc

# Non-test, non-testdata Go lines per package tree, plus DESIGN.md: the
# numbers ROADMAP aim 2 tracks ("should fall"). A ratchet: it fails when
# either exceeds its ceiling (the round's acceptance line in ROADMAP).
LOC_CEILING    := 23894
DESIGN_CEILING := 770

loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.*' -print0 \
		| xargs -0 wc -l | awk '$$2 != "total" { \
			n = split($$2, p, "/"); \
			t = n == 2 ? "." : (p[2] == "internal" ? p[2] "/" p[3] : p[2]); \
			loc[t] += $$1; if (p[2] != "bench") sum += $$1 } \
		END { for (t in loc) printf "%7d %s\n", loc[t], t | "sort -k2"; close("sort -k2"); \
			printf "%7d total outside bench/ (ceiling $(LOC_CEILING))\n", sum; \
			exit sum > $(LOC_CEILING) }'
	@n=$$(wc -l < DESIGN.md); echo "$$n DESIGN.md (ceiling $(DESIGN_CEILING))"; \
		test $$n -le $(DESIGN_CEILING)

# ~10s per fuzz target (the lint job in .github/workflows/ci.yml runs
# this target): catches wire decoders that panic on near-valid frames as
# soon as a new codec lands — OpenFlow, Ethernet/DNS, the UDP-exposed
# SNMP decoder — a flow-table lookup that stops answering like the
# priority scan, an in-place VLAN rewrite or packed key that stops
# agreeing with its reference, a header parser that stops agreeing
# with the full decoder, a cached S4 node (entries that follow the
# patch ports) that stops agreeing with a walked one, a CLI line the
# legacy switch refuses but half applies, and a scenario or campaign
# spec that panics its parser. Every package with a Fuzz target belongs here.
FUZZ_PKGS := ./internal/openflow ./internal/flowtable ./internal/pkt ./internal/snmp ./internal/softswitch ./internal/telemetry ./internal/legacy ./internal/sim ./internal/migrate

fuzz-smoke:
	@for pkg in $(FUZZ_PKGS); do \
		for target in $$($(GO) test -list 'Fuzz.*' $$pkg | grep '^Fuzz'); do \
			$(GO) test -run "^$$target$$" -fuzz "^$$target$$" -fuzztime 10s $$pkg || exit 1; \
		done; \
	done

test:
	$(GO) build ./...
	$(GO) test ./...
	$(GO) test -race -short ./...

# The smoke run: every key datapath bench must complete (-benchtime 1x,
# -count 2), then benchdiff -check fails on panics / FAILs /
# 0-iteration rows and prints the results as a table.
# The same-run ratio gates (benchdiff -pair-check) need real timings, so
# the pair pass reruns BenchmarkManyFlows measured (-benchtime 20000x)
# and fails if the flow cache is a net tax on ANY workload, runs
# BenchmarkE2_ChainBurst and fails if the full HARMLESS chain forwards
# at less than 0.3 of the bare switch, runs BenchmarkReceiveBatch and
# fails if a 32-frame burst forwards at less than 2.08x the
# frame-at-a-time rate or a burst that is one run on one cache entry at
# less than 1.6x one whose runs are one frame long, and runs
# BenchmarkForwardBurst and fails if the legacy bridge forwards a burst
# with one address pair at less than 1.4x one whose pairs alternate, and
# runs BenchmarkE3_PathLatency and fails if a lone frame crosses the full
# chain at less than 1/5 of the bare switch's rate.
# Those five run in separate invocations, five each but nine for
# BenchmarkE2_ChainBurst, whose chain/bare ratio sat within noise of its
# gate at five (single runs 0.21-0.47). With N results a side benchdiff
# gates the median of the N per-run ratios, which one slow run does not
# move: cached/uncached sits near 1 (a walk costs what a hit costs on
# one-mask tables) and every row lasts milliseconds. Not -count 5:
# -count runs each sub-benchmark's five back to back, so a slow spell of
# the machine over one side's block moves all five ratios at once, while
# one invocation runs the two sides of a pair milliseconds apart. It then
# runs BenchmarkLookup and fails if a lookup
# among /24 prefixes costs more than 4x one among exact rules, and runs
# BenchmarkAdd and fails if adding a new flow to a table of 4096 costs
# more than 4x adding it to one of 16 — same-run siblings, so the gates
# hold on any hardware. BenchmarkFlowSetup (PACKET_IN -> learning app ->
# FLOW_MOD + PACKET_OUT over net.Pipe, with allocs/op) rides in the same
# pass for the record; it has no sibling to be gated against. The whole-repo sweep then
# proves every other bench still runs too. bench.txt, bench-pairs.txt and
# bench-full.txt are outputs, rewritten by every run (CI uploads them as
# artifacts): .gitignore lists them and they are never committed. With
# BENCH_SUMMARY set to a file (CI: the job's step summary) the two
# benchdiff tables are appended to it as well.
BENCH_SUMMARY ?= /dev/null

bench:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime 1x -count 2 $(BENCH_PKGS) 2>&1 | tee bench.txt
	{ echo "## Bench smoke"; $(GO) run ./cmd/benchdiff -bench bench.txt -check; } | tee -a $(BENCH_SUMMARY)
	for i in 1 2 3 4 5; do $(GO) test -run '^$$' -bench 'BenchmarkManyFlows' -benchtime 20000x ./internal/softswitch; done 2>&1 | tee bench-pairs.txt
	for i in 1 2 3 4 5; do $(GO) test -run '^$$' -bench 'BenchmarkReceiveBatch' -benchtime 300000x ./internal/softswitch; done 2>&1 | tee -a bench-pairs.txt
	for i in 1 2 3 4 5 6 7 8 9; do $(GO) test -run '^$$' -bench 'BenchmarkE2_ChainBurst' -benchtime 200000x .; done 2>&1 | tee -a bench-pairs.txt
	for i in 1 2 3 4 5; do $(GO) test -run '^$$' -bench 'BenchmarkForwardBurst' -benchtime 1000000x ./internal/legacy; done 2>&1 | tee -a bench-pairs.txt
	for i in 1 2 3 4 5; do $(GO) test -run '^$$' -bench 'BenchmarkE3_PathLatency' -benchtime 200000x .; done 2>&1 | tee -a bench-pairs.txt
	$(GO) test -run '^$$' -bench 'BenchmarkLookup|BenchmarkAdd' -benchtime 100000x ./internal/flowtable 2>&1 | tee -a bench-pairs.txt
	$(GO) test -run '^$$' -bench 'BenchmarkFlowSetup' -benchtime 100000x -benchmem ./internal/controller 2>&1 | tee -a bench-pairs.txt
	{ echo "## Same-run ratio gates"; $(GO) run ./cmd/benchdiff -bench bench-pairs.txt -check -pair-check; } | tee -a $(BENCH_SUMMARY)
	$(GO) test -run '^$$' -bench . -benchtime 1x ./... 2>&1 | tee bench-full.txt
	$(GO) run ./cmd/benchdiff -bench bench-full.txt -check > /dev/null

# Mirror of the fleetsim-smoke CI job: 1040 switches and 1M flow
# arrivals on virtual time, run twice; the digests must match bitwise
# and the packet-mode failover scenario must pass its zero-loss checks.
fleetsim-smoke:
	$(GO) build -o fleetsim ./cmd/fleetsim
	./fleetsim -scenario examples/fleetsim/ci-smoke.json -wall-budget 55s -v -out verdict-a.json > /dev/null
	./fleetsim -scenario examples/fleetsim/ci-smoke.json -wall-budget 55s -out verdict-b.json > /dev/null
	@da="$$(grep -o '"digest": *"[0-9a-f]*"' verdict-a.json)"; \
	db="$$(grep -o '"digest": *"[0-9a-f]*"' verdict-b.json)"; \
	echo "run A: $$da"; echo "run B: $$db"; \
	test -n "$$da" && test "$$da" = "$$db"
	./fleetsim -scenario examples/fleetsim/packet-failover.json -wall-budget 55s > /dev/null

# Mirror of the migrate-smoke CI job: the example three-wave campaign
# (one wave killed by a mid-soak server death and rolled back, one
# controller failover survived) run twice; both runs must pass their
# zero-loss + cost-conformance verdicts and produce bitwise-identical
# digests.
migrate-smoke:
	$(GO) build -o migrate-bin ./cmd/migrate
	./migrate-bin -spec examples/migrate/campaign.json -wall-budget 55s -v -out campaign-a.json > /dev/null
	./migrate-bin -spec examples/migrate/campaign.json -wall-budget 55s -out campaign-b.json > /dev/null
	@da="$$(grep -o '"digest": *"[0-9a-f]*"' campaign-a.json)"; \
	db="$$(grep -o '"digest": *"[0-9a-f]*"' campaign-b.json)"; \
	echo "run A: $$da"; echo "run B: $$db"; \
	test -n "$$da" && test "$$da" = "$$db"

ci: lint test bench fleetsim-smoke migrate-smoke
