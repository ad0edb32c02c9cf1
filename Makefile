# Verification targets. `make verify` is the CI entry point: tier-1
# build+test plus vet and a race-detector pass over every internal
# package (the list is derived, not hand-kept: a new package is raced
# the day it lands). `make lint`, `make cover`, `make benchcheck` and
# `make model-verify` are the CI quality gates that run alongside it.

GO ?= go

# Minimum total statement coverage (percent) for the packages gated by
# `make cover`.
COVER_FLOOR ?= 70

# Packages whose coverage is gated: the serving path (serve, tiered,
# cluster), its observability (obs), persistence and querying (store,
# query), the model control plane (lifecycle, modelreg, and daemon, the
# parse-stack assembly every binary shares), and the cross-protocol
# audit engine (consistency).
COVER_PKGS = repro/internal/serve repro/internal/obs repro/internal/store repro/internal/lifecycle repro/internal/tiered repro/internal/cluster repro/internal/query repro/internal/consistency repro/internal/modelreg repro/internal/daemon

# Corpus size and seed for the query-differential gate. The seed
# defaults to today's date so CI explores a fresh corpus every day;
# failures log both values, so any corpus is one env var away from a
# local repro.
QUERYDIFF_N ?= 2000
QUERYDIFF_SEED ?= $(shell date +%Y%m%d)

# Corpus size and seed for the parse-differential gate, chosen the same
# way: the seed is today's date unless given.
PARSEDIFF_N ?= 3000
PARSEDIFF_SEED ?= $(shell date +%Y%m%d)

.PHONY: verify vet build test race bench-serve bench-tiered lint importcheck benchcheck cover fuzz-smoke query-diff parse-diff model-verify

verify: vet build test race

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs tests in a random order; on a failure Go prints the
# -test.shuffle seed, and `go test -race -shuffle=<seed> <pkg>` replays
# that order.
race:
	$(GO) test -race -shuffle=on ./internal/...

bench-serve:
	$(GO) test -run xxx -bench 'BenchmarkServe|BenchmarkParseDirect' -benchtime 1000x ./internal/serve/

bench-tiered:
	$(GO) test -run xxx -bench 'BenchmarkTiered' -benchtime 1000x ./internal/tiered/

# lint: formatting, vet, and import hygiene. Fails if any file needs
# gofmt, if vet complains, or if an internal package imports cmd.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	$(MAKE) importcheck

# importcheck: library code must never depend on binaries. Checks the
# full transitive deps of every internal package for repro/cmd/*.
importcheck:
	@bad=$$($(GO) list -f '{{.ImportPath}}: {{join .Deps " "}}' ./internal/... | grep 'repro/cmd' || true); \
	if [ -n "$$bad" ]; then \
		echo "internal packages must not depend on cmd:"; echo "$$bad"; exit 1; \
	fi
	@echo "importcheck: ok"

# benchcheck: run the smoke benchmarks (-count 3, min is kept) and
# compare against the committed BENCH_*.json baselines. Tolerance is
# 30%; widen with BENCH_TOL=0.5 on noisy machines.
benchcheck:
	$(GO) build -o /tmp/benchcheck ./cmd/benchcheck
	( $(GO) test -run '^$$' -bench 'BenchmarkPosterior$$|BenchmarkServeHot$$|BenchmarkParseRecord$$|BenchmarkParseStream$$|BenchmarkTokenizeRecord$$' -benchtime 200x -count 3 ./internal/serve . && \
	  $(GO) test -run '^$$' -bench 'BenchmarkStoreAppend$$|BenchmarkStoreScan$$' -benchtime 4096x -count 3 ./internal/store && \
	  $(GO) test -run '^$$' -bench 'BenchmarkStoreCompress$$' -benchtime 20x -count 3 ./internal/store && \
	  $(GO) test -run '^$$' -bench 'BenchmarkHotSwap$$|BenchmarkParseDuringSwap$$' -benchtime 4096x -count 3 ./internal/lifecycle && \
	  $(GO) test -run '^$$' -bench 'BenchmarkTiered' -benchtime 200x -count 3 ./internal/tiered && \
	  $(GO) test -run '^$$' -bench 'BenchmarkRingLookup$$|BenchmarkRingLookupBounded$$|BenchmarkShardForward$$|BenchmarkShardForwardRemoteHit$$|BenchmarkShardForwardTCP$$' -benchtime 20000x -count 3 ./internal/cluster && \
	  $(GO) test -run '^$$' -bench 'BenchmarkQueryPruned$$|BenchmarkQueryFullScan$$|BenchmarkSidecarBuild$$' -benchtime 20x -count 3 ./internal/query && \
	  $(GO) test -run '^$$' -bench 'BenchmarkConsistencyCheck$$|BenchmarkConsistencyBatch$$' -benchtime 20000x -count 3 ./internal/consistency && \
	  $(GO) test -run '^$$' -bench 'BenchmarkPublish$$|BenchmarkResolveServing$$' -benchtime 50x -count 3 ./internal/modelreg ) \
	  | /tmp/benchcheck BENCH_serve.json BENCH_inference.json BENCH_store.json BENCH_lifecycle.json BENCH_tiered.json BENCH_cluster.json BENCH_query.json BENCH_consistency.json BENCH_modelreg.json

# fuzz-smoke: replay the checked-in seed corpora and fuzz the record,
# wire and sidecar decoders, the line scanner and the /parsed/ body
# appender briefly. Not part of verify; run before touching encoding.go,
# the cluster codec, internal/tokenize or internal/rdap/parsed.go.
fuzz-smoke:
	$(GO) test -run TestFuzzSeeds ./internal/store/ ./internal/query/
	$(GO) test -run FuzzWireDecode ./internal/cluster/
	$(GO) test -run TestFuzzSeedsAsRegressions ./internal/norm/
	$(GO) test -run FuzzScan ./internal/tokenize/
	$(GO) test -run FuzzParsedBody ./internal/rdap/
	$(GO) test -run '^$$' -fuzz FuzzRecordDecode -fuzztime 10s ./internal/store/
	$(GO) test -run '^$$' -fuzz FuzzFrameScan -fuzztime 10s ./internal/store/
	$(GO) test -run '^$$' -fuzz FuzzWireDecode -fuzztime 10s ./internal/cluster/
	$(GO) test -run '^$$' -fuzz FuzzFactsDecode -fuzztime 10s ./internal/query/
	$(GO) test -run '^$$' -fuzz FuzzNorm -fuzztime 10s ./internal/norm/
	$(GO) test -run '^$$' -fuzz FuzzScan -fuzztime 10s ./internal/tokenize/
	$(GO) test -run '^$$' -fuzz FuzzParsedBody -fuzztime 10s ./internal/rdap/

# query-diff: the differential gate for the query engine. A randomized
# store (fresh seed daily in CI) is queried with every supported
# predicate through Scan and Survey, which answer sealed segments from
# their facts sidecars, and through the brute-force full scan; any byte
# of difference fails. The corrupt-sidecar variant re-runs the
# comparison with each sidecar failure mode injected.
query-diff:
	@echo "query-diff: QUERYDIFF_N=$(QUERYDIFF_N) QUERYDIFF_SEED=$(QUERYDIFF_SEED)"
	QUERYDIFF_N=$(QUERYDIFF_N) QUERYDIFF_SEED=$(QUERYDIFF_SEED) \
	  $(GO) test -run 'TestQueryDifferential' -count=1 ./internal/query/

# parse-diff: the differential gate for the fused parse path. Every
# .com and new-TLD schema, each drift mutation of it, and a randomized
# corpus (fresh seed daily in CI) are parsed by Parse,
# ParseWithConfidence and Confidence, which map scanned bytes straight
# to feature ids, and by the string-building ParseBlocks + ParseFields
# reference, under parsers trained with all 8 tokenize.Options
# combinations; any difference in the store encoding, a line's
# Title/Value/HasSep or a confidence fails. The scanner's own
# differential against the reference tokenizer runs on the same corpus,
# and so does L0's: the compiled template matcher (Match and
# MatchRegistrar) against a Tokenize-driven reference labeller, with and
# without layout, which must decline exactly where the reference fails
# and label every line the same where it does not.
parse-diff:
	@echo "parse-diff: PARSEDIFF_N=$(PARSEDIFF_N) PARSEDIFF_SEED=$(PARSEDIFF_SEED)"
	PARSEDIFF_N=$(PARSEDIFF_N) PARSEDIFF_SEED=$(PARSEDIFF_SEED) \
	  $(GO) test -run 'TestParseDifferential|TestScanDifferential|TestMatchDifferential' -count=1 ./internal/core/ ./internal/tokenize/ ./internal/templatebased/

# model-verify: end-to-end registry smoke over the real CLI — generate
# a small corpus, train a model, publish it into a scratch registry,
# walk it candidate -> shadow -> serving, publish a successor, and run
# a full checksum verification over everything. This is the runbook in
# README.md, executed.
model-verify:
	$(GO) build -o /tmp/whoisparse ./cmd/whoisparse
	@dir=$$(mktemp -d /tmp/modelreg.XXXXXX); set -e; \
	/tmp/whoisparse gen -n 200 -seed 7 -out $$dir/corpus.labeled; \
	/tmp/whoisparse train -in $$dir/corpus.labeled -out $$dir/parser.wmdl; \
	/tmp/whoisparse model publish -registry $$dir/reg -artifact $$dir/parser.wmdl -corpus $$dir/corpus.labeled -candidate; \
	/tmp/whoisparse model promote -registry $$dir/reg -version 1.0.0; \
	/tmp/whoisparse model promote -registry $$dir/reg -version 1.0.0; \
	/tmp/whoisparse model publish -registry $$dir/reg -artifact $$dir/parser.wmdl -version 1.1.0 -parent 1.0.0; \
	/tmp/whoisparse model verify -registry $$dir/reg; \
	/tmp/whoisparse model list -registry $$dir/reg; \
	rm -rf $$dir; \
	echo "model-verify: ok"

# cover: per-package coverage floor. Writes cover.<pkg>.out profiles
# (uploaded as CI artifacts) and fails if any gated package is below
# COVER_FLOOR percent.
cover:
	@for pkg in $(COVER_PKGS); do \
		out=cover.$$(basename $$pkg).out; \
		$(GO) test -coverprofile=$$out $$pkg || exit 1; \
		pct=$$($(GO) tool cover -func=$$out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
		echo "$$pkg total coverage: $$pct% (floor $(COVER_FLOOR)%)"; \
		awk -v p="$$pct" -v f="$(COVER_FLOOR)" 'BEGIN {exit (p+0 < f+0) ? 1 : 0}' || \
			{ echo "$$pkg is below the $(COVER_FLOOR)% coverage floor"; exit 1; }; \
	done
