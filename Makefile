# Single source of truth for the commands CI and humans run.

GO ?= go

.PHONY: build test race vet bench bench-smoke pdes litmus farm farm-grow fuzz synczoo chaos kv cover serve clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Vet, then fail on any Go file gofmt would rewrite.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists unformatted files:"; echo "$$out"; exit 1; fi

# The repo's benchmark (perfbench/README.md): one untraced 25 s run of each
# workload BENCHMARK.json lists, failing on any failed op. Full records are
# appended to .bench_build/results.jsonl; compare two sets of them with
# `bash perfbench/run.sh compare old.jsonl new.jsonl`. The Go
# microbenchmarks in bench_test.go run with `go test -bench`.
bench:
	@for w in $(shell sed -n '/"workloads"/,/]/s/.*"name": *"\([^"]*\)".*/\1/p' BENCHMARK.json); do \
		res=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 25 --trace 0 | tail -n 1); \
		echo "$$w: $$res"; \
		case $$res in *'"correct":true'*) ;; *) echo "bench: $$w failed or had failed ops" >&2; exit 1 ;; esac; \
	done

# One-iteration benchmark smoke: proves the bench paths (simulator kernel and
# exploration engine) build and run, then vets and self-tests the benchmark
# module, which the root `go test ./...` skips; used by CI, where timing
# numbers would be noise anyway.
bench-smoke:
	$(GO) test '-bench=SimulatorThroughput|Enumerate|EngineQueue|CoverageVector' -benchtime=1x -run=^$$ . ./internal/sim/
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# PDES determinism gate: the parallel engine's unit tests, the window-merge
# port-arbitration parity suite, and every workers=1-vs-N equality property
# (engine, network, workload, harness, daemon) under the race detector. The
# bench line runs both the ideal and the contended stencil (the PDESStencil
# pattern substring-matches PDESStencilContended).
pdes:
	$(GO) test -race ./internal/sim/
	$(GO) test -race -run 'PDES|Parallel|Stencil|SimWorkers|LaneArbitration' \
		./internal/core/ ./internal/network/ ./internal/workload/ ./internal/harness/ ./internal/server/
	$(GO) test '-bench=PDESStencil/workers=(0|2)$$' -benchtime=1x -run=^$$ .

# Synchronization-zoo litmus: the mutual-exclusion and barrier-separation
# witnesses for every zoo algorithm, swept across jitter seeds under the
# race detector, then across fault seeds on a misbehaving interconnect.
synczoo:
	$(GO) test -race ./internal/synczoo/
	$(GO) run ./cmd/ssmpsync litmus -seeds 8
	$(GO) run ./cmd/ssmpsync litmus -seeds 8 -faults

# Litmus cross-validation: the embedded corpus under the race detector,
# then a bounded fuzz of random programs against the axiomatic model.
litmus:
	$(GO) test -race -run 'TestCorpus|TestFuzz|TestShrink' ./internal/litmus/
	$(GO) run ./cmd/ssmplitmus fuzz -budget 30s

# Farm-corpus gate: the committed generated corpus (300+ canonical tests,
# every §2 axiom family covered) replayed end to end under the race
# detector — canonical-form fixpoint, recomputed coverage vectors, pinned
# allowed sets, simulator cross-validation, and engine-configuration
# agreement (POR on/off, any worker count) on every test, and coverage
# vectors equal to the one-at-a-time reference loop's on the corpus and on
# fresh farm candidates.
farm:
	$(GO) test -race -run 'TestGeneratedCorpusReplay|TestDifferentialGenerated|TestFarm|TestCanonicalize|TestCoverageVector' \
		./internal/litmus/

# Regenerate the committed farm corpus from scratch (deterministic: the
# output is a pure function of the campaign parameters, so this is a
# no-op unless the generator, model, or canonicalization changed).
farm-grow:
	$(GO) run ./cmd/ssmplitmus farm -n 7000 -rng 1 -report \
		-out internal/litmus/testdata/generated

# Native fuzz targets, 10 s each (one package per `go test -fuzz` run):
# event-kernel order against a reference model, trace-file
# Write/Parse round trip, and litmus canonical-form fixpoint. Their seed
# corpora already run in `go test ./...`.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzEngineOrder$$' -fuzztime 10s ./internal/sim/
	$(GO) test -run '^$$' -fuzz '^FuzzTraceParse$$' -fuzztime 10s ./internal/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzLitmusParse$$' -fuzztime 10s ./internal/litmus/

# Chaos soak: fault-plane and reliable-transport unit tests under the race
# detector, then the litmus corpus swept across fault seeds — each run's
# fabric drops, duplicates and delays messages (seeded, deterministic) and
# every observed outcome must still be axiomatically allowed.
chaos:
	$(GO) test -race -run 'TestFault|TestTransport|TestChaos' \
		./internal/network/ ./internal/fabric/ ./internal/core/ ./internal/litmus/ ./internal/server/
	$(GO) run ./cmd/ssmplitmus run -faults -seeds 32

# Key-value service gate: the kvapp unit tests and sequential-consistency
# oracle under the race detector (including the chaos soak in -short form
# and the lane-safety bit-identical check), the harness/server/CLI surface,
# then a short chaos soak through the CLI across both protocols.
kv:
	$(GO) test -race -short ./internal/kvapp/
	$(GO) test -race -run 'KV|MetricsLatency' ./internal/harness/ ./internal/server/
	$(GO) run ./cmd/ssmpkv soak -seeds 4
	$(GO) test '-bench=KVStore/lock=(cbl|mcs)/procs=4$$' -benchtime=1x -run=^$$ .

# Per-package statement coverage, with a hard floor on the checker
# packages the litmus farm rests on (override: COVER_FLOOR=90 make cover).
COVER_FLOOR ?= 85
cover:
	@out=$$($(GO) test -cover ./...) || { echo "$$out"; exit 1; }; \
	echo "$$out"; \
	echo "$$out" | awk -v floor=$(COVER_FLOOR) ' \
		$$2 ~ /^ssmp\/internal\/(bccheck|litmus)$$/ { \
			for (i = 1; i <= NF; i++) if ($$i ~ /%$$/) { \
				p = $$i; sub(/%/, "", p); \
				if (p + 0 < floor) { printf "coverage gate: %s at %s%% is below the %s%% floor\n", $$2, p, floor; fail = 1 } \
			} \
		} \
		END { exit fail }'

serve: build
	$(GO) run ./cmd/ssmpd -addr :8080

clean:
	$(GO) clean ./...
