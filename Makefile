GO ?= go

.PHONY: check fmt vet build bench-build test race race-solver lint-state examples bench-smoke bench-pairs output-identity flake fuzz-smoke chaos crash-chaos service-chaos failover-chaos eco-chaos experiments-check loc

## check: the full pre-merge gate — gofmt, vet, build, benchmark-module
## build, state lint, race-enabled tests, examples, bench smoke, flake gate,
## chaos suite, crash-chaos suite, service-chaos suite, failover-chaos
## suite, eco-chaos suite, fuzz smoke.
check: fmt vet build bench-build lint-state race-solver race examples bench-smoke flake chaos crash-chaos service-chaos failover-chaos eco-chaos fuzz-smoke

## fmt: fails, listing the files, when any Go file is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "fmt: gofmt -l reports unformatted files:" >&2; echo "$$out" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

## bench-build: vet and test the benchmark (crpbench, a nested module that
## ./... at the root skips), so a flow API change that breaks it fails here
## instead of when the benchmark runs.
bench-build:
	cd crpbench && $(GO) vet ./... && $(GO) test ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## race-solver: fast early race gate over the GCP fast path — the parallel
## candidate-generation fan-out is its only lock-coordinated hot path, so
## race it first and with -count=1.
race-solver:
	$(GO) test -race -count=1 ./internal/ilp/... ./internal/legal/... ./internal/crp/...

## examples: runs every example end to end (about 2 s together) and fails
## on the first non-zero exit; `go build` only compiles them.
EXAMPLES := quickstart congestion fileflow sweep
examples:
	@set -e; for e in $(EXAMPLES); do \
		echo "examples: $$e"; $(GO) run ./examples/$$e >/dev/null; \
	done

## loc: prints the non-test and _test.go Go line counts of the root module
## (crpbench/ and .bench_build/ left out).
loc:
	@bash scripts/loc.sh

## bench-smoke: one-shot Fig. 3 breakdown and one pass of every layer
## micro-benchmark under internal/ — catches benchmark rot without paying
## for a real measurement run (the measured harness is crpbench/run.sh).
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkFig3Breakdown' -benchtime 1x .
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/...

## bench-pairs: the benchmark's pair protocol as a report, not a gate (not
## in check): PAIRS alternating 20 s runs of PARENT and the working tree on
## one workload and seed, then each end-to-end metric's medians [Q1, Q3],
## the change's wins and a verdict (scripts/bench-pairs.sh), e.g.
## `make bench-pairs PARENT=HEAD~1 WORKLOAD=flow_fig3 PAIRS=10 SEED=3`.
## TRACE=1 runs the pairs with --trace 1 and adds each per-layer metric's
## medians [Q1, Q3] and wins (no verdict: per-layer metrics have no bound).
PARENT ?= HEAD
WORKLOAD ?= flow_fig3
PAIRS ?= 10
SEED ?= 1
TRACE ?= 0
bench-pairs:
	bash scripts/bench-pairs.sh $(PARENT) $(WORKLOAD) $(PAIRS) $(SEED) $(TRACE)

## output-identity: a report, not a gate (not in check): runs cmd/crp of
## PARENT and of the working tree on the same benchgen inputs — crp_test1–10
## at scale 0.004 and 0.02, crp_test7 at 0.05, a crp_test7@0.004 checkpoint
## directory and a 16-move ECO on it — and prints one line per differing
## file, then a count (scripts/output-identity.sh), e.g.
## `make output-identity PARENT=HEAD~1`. A crashed run fails it; a
## difference does not.
output-identity:
	bash scripts/output-identity.sh $(PARENT)

## flake: the job service and flow packages, raced, in shuffled order,
## three times over — an order- or timing-dependent test fails here before
## it flakes in a plain `go test ./...`.
flake:
	$(GO) test -race -shuffle=on -count=3 ./internal/service ./internal/flow

## lint-state: no code in the CR&P iteration path mutates placement, grid
## demand or routes behind the view's back — mutation goes through
## view.Overlay/view.Txn only (see DESIGN.md, "State architecture").
lint-state:
	@if grep -nE '\.D\.(MoveCells|Restore|Snapshot|ImportPositions|ImportHistory)\(|\.G\.(AddWire|AddVia|RestoreDemand)\(|\.R\.(RipUp|Commit|RerouteNet|AdoptRoutes)\(' \
		$$(find internal/crp -name '*.go' ! -name '*_test.go'); then \
		echo 'lint-state: direct design-state mutation in the CR&P iteration path — use view.Overlay/view.Txn (DESIGN.md, "State architecture")' >&2; \
		exit 1; \
	else \
		echo 'lint-state: ok'; \
	fi

## chaos: the fault-injection suite — every fault class must complete with
## degraded-mode stats and a legal design; zero faults must be bit-identical
## (see EXPERIMENTS.md, "Fault-injection runbook").
chaos:
	$(GO) test -race -count=1 -run 'TestChaos' ./internal/flow
	$(GO) test -race -count=1 -run 'TestSelectFallback|TestSelectExpiredDeadline' ./internal/crp
	$(GO) test -race -count=1 ./internal/faultinject

## crash-chaos: the crash-safety suite — kill-at-every-checkpoint-boundary
## resume bit-identity, corrupt-checkpoint fallback, and a really-crashing
## child process re-run until it completes (see EXPERIMENTS.md,
## "Kill/resume runbook").
crash-chaos:
	$(GO) test -race -count=1 -run 'TestResume|TestCheckpoint|TestSupervisor' ./internal/flow
	$(GO) test -race -count=1 ./internal/checkpoint ./internal/supervise ./internal/atomicio

## service-chaos: the daemon-level chaos suite — multi-tenant job service
## under injected worker panics, SIGKILLed child workers, preemption,
## drain/restart recovery and overload, asserting byte-identical outputs
## and structured admission errors (see DESIGN.md, "Service architecture").
service-chaos:
	$(GO) test -race -count=1 ./internal/service ./internal/supervise

## failover-chaos: the multi-node failover battery — kill-at-every-
## checkpoint-boundary adoption with byte-identical outputs, partitioned
## zombies fenced off the store, the load-shed ladder engaging in order,
## exact-result-cache differentials, retry-budget exhaustion, and the
## lease-clock edge cases (see EXPERIMENTS.md, "Failover runbook").
failover-chaos:
	$(GO) test -race -count=1 -run 'TestFailover|TestShedLadder|TestResultCache|TestRetryBudget|TestLease|TestDecodeLeaseRecord|TestNodesEndpoint' ./internal/service
	$(GO) test -race -count=1 -run 'TestRetryBudget' ./internal/supervise

## eco-chaos: the incremental-ECO battery — a crash mid-ECO reruns to
## byte-identical outputs (ECO attempts are deterministic and carry no
## checkpoints), a malformed or inadmissible delta is a structured rejection
## before anything mutates, and the ECO-vs-scratch differential holds (see
## EXPERIMENTS.md, "ECO runbook").
eco-chaos:
	$(GO) test -race -count=1 -run 'TestECO' ./internal/flow ./internal/service
	$(GO) test -race -count=1 ./internal/eco

## fuzz-smoke: short coverage-guided runs of every fuzz target (one -fuzz
## per invocation — the go tool allows a single target at a time). The
## minimize cap keeps a new-coverage find from eating the whole budget.
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test ./internal/lefdef -fuzz 'FuzzParseLEF$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 20x
	$(GO) test ./internal/lefdef -fuzz 'FuzzParseDEF$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 20x
	$(GO) test ./internal/lefdef -fuzz 'FuzzDEFRoundTrip$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 20x
	$(GO) test ./internal/lefdef -fuzz 'FuzzTokenizer$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 20x
	$(GO) test ./internal/lefdef -fuzz 'FuzzWriteDEFMatchesOracle$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 20x
	$(GO) test ./internal/checkpoint -fuzz 'FuzzCheckpointDecode$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 20x
	$(GO) test ./internal/view -fuzz 'FuzzOverlayCommit$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 20x
	$(GO) test ./internal/ilp -fuzz 'FuzzILPSolve$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 20x
	$(GO) test ./internal/legal -fuzz 'FuzzRelocate$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 20x
	$(GO) test ./internal/crp -fuzz 'FuzzSelect$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 20x
	$(GO) test ./internal/service -fuzz 'FuzzSpecDecode$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 20x
	$(GO) test ./internal/service -fuzz 'FuzzLeaseRecord$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 20x
	$(GO) test ./internal/eco -fuzz 'FuzzDeltaApply$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 20x
	$(GO) test ./internal/grid -fuzz 'FuzzGridPrices$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 20x
	$(GO) test ./internal/route/global -fuzz 'FuzzMazeGate$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 20x
	$(GO) test ./internal/route/global -fuzz 'FuzzPatternRoute$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 20x
	$(GO) test ./internal/route/global -fuzz 'FuzzEstimateLowerBound$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 20x

## experiments-check: regenerates Tables II and III at scale 0.02 (~2 min)
## and fails, listing the differing rows, when either differs from the block
## EXPERIMENTS.md records. Both tables are deterministic, so any difference
## is drift. Nightly only; not part of check.
experiments-check:
	bash scripts/experiments-check.sh
