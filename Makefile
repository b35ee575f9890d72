GO ?= go

.PHONY: build test race verify chaos crash fleetchaos fsck fuzz bench scalebench querybench querychaos profile fmt vet

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# verify is the tier-1 gate: everything builds, vet is clean, all tests
# pass, the test suite is race-clean, and the committed example snapshot
# passes fsck at the CLI. The crash-tagged harness must at least compile
# (vet + a no-op test run), so it cannot rot unnoticed. Code under cmd and
# internal (what `make fmt` rewrites) must be gofmt-clean, and no package
# may import encoding/gob: snapshots and the crawl journal share the one
# JSONL codec on disk.
verify: build vet test race fsck
	@unformatted=$$(gofmt -l cmd internal); \
		if [ -n "$$unformatted" ]; then echo "gofmt needed (run make fmt):"; echo "$$unformatted"; exit 1; fi
	@gob=$$($(GO) list -f '{{.ImportPath}}: {{join .Imports " "}}' ./... | grep -w 'encoding/gob'); \
		if [ -n "$$gob" ]; then echo "encoding/gob imported (the on-disk codec is JSONL):"; echo "$$gob"; exit 1; fi
	$(GO) vet -tags crash ./internal/crawler ./internal/fleet
	$(GO) test -tags crash -run '^$$' ./internal/crawler ./internal/fleet
	$(GO) vet -tags scale ./internal/scale
	$(GO) test -tags scale -run '^$$' ./internal/scale

# chaos runs only the end-to-end fault-injection suite: a full crawl under
# an aggressive fault profile with simulated process deaths, plus the
# circuit-breaker and journal-discipline assertions.
chaos:
	$(GO) test ./internal/crawler -run 'TestChaos' -v

# crash runs the crash-chaos harness (build tag: crash): crawls aborted at
# injected journal crashpoints and child crawlers SIGKILLed at randomized
# journal byte offsets, each resumed and required to converge on a
# byte-identical, fsck-clean snapshot. Set CRASH_SEED=n for new offsets.
crash:
	$(GO) test -tags crash ./internal/crawler -run 'TestCrash' -count=1 -v

# fleetchaos runs the distributed-crawl chaos harness (build tag: crash),
# two modes: worker processes sharing one lease table SIGKILLed at
# randomized byte offsets of the fleet directory's growth and replaced
# under fresh worker IDs, and a heartbeat-suppressed worker SIGSTOPped
# past its lease TTL whose shard a successor fences at a higher epoch
# before the zombie resumes (the fencing-token proof: the zombie must
# self-terminate on ErrFenced with fence_rejections firing). The merged
# snapshot must be byte-identical to an undisturbed solo crawl and
# fsck-clean either way. Set CRASH_SEED=n for a new kill schedule.
fleetchaos:
	$(GO) test -tags crash ./internal/fleet -run 'TestFleetChaos' -count=1 -v

# fsck validates the committed example snapshot end to end: manifest
# checksums, decodability, and the paper's referential schema.
fsck:
	$(GO) run ./cmd/steamstudy -fsck -snapshot internal/dataset/testdata/example.snap.jsonl

# fuzz runs every native fuzz target (func Fuzz*) in the module for
# FUZZTIME each, on top of its committed seed corpus under
# testdata/fuzz/. It is not part of verify: plain `go test` already
# replays the seed corpus, and a fuzzing budget belongs outside tier-1.
# Minimizing a new input is capped at 2s: at Go's default of 60s, a
# target whose inputs write files (FuzzJournalReplay, FuzzMergeSplits)
# spends its whole budget minimizing one input.
FUZZTIME ?= 30s
fuzz:
	@for pkg in $$($(GO) list ./...); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "fuzz: $$pkg $$target ($(FUZZTIME))"; \
			$(GO) test $$pkg -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME) \
				-fuzzminimizetime 2s || exit 1; \
		done; \
	done

# bench refreshes the repo's performance trajectory files. Each suite
# runs once at GOMAXPROCS=1 and once with every core (benchjson skips the
# second pass on single-CPU hosts), and every recorded result carries the
# GOMAXPROCS it actually ran under, so a workers=max number is never
# mistaken for a parallel speedup the machine could not have produced.
#   BENCH_analysis.json — tier-2 analysis benchmarks (RunAll render,
#     heavy-tail fit, Table 4 classification of a continuous and a
#     count-data row, Spearman), serial baseline and full-pool variant of
#     each. Each row is the median of 5 runs, with the min and max ns/op
#     beside it.
#   BENCH_obs.json — obs hot-path costs (counter add, histogram observe,
#     8-goroutine contention): the observability layer's overhead budget.
#   BENCH_journal.json — the crawl journal over a 20k-user universe:
#     append and replay µs per user, segment bytes per user, and replay
#     µs per user and bytes of a compacted base (medians of 5). Pass
#     -baseline FILE to keep another commit's run beside it.
#   BENCH_datapath.json — the data plane at 500k-user scale (generate
#     at workers=1 vs workers=max; Save and Load through a temp file,
#     Snapshot.Fsck) plus the hand-rolled JSONL codec against
#     encoding/json. Each row is the median of 5 runs, with the min and
#     max ns/op beside it.
# scalebench is the out-of-core proof (DESIGN.md §16), two parts:
#   1. the scale-tagged byte-identity harness — at 500k users the
#      streamed encode must match the in-memory Save byte for byte, the
#      sharded layout must round-trip to the same content signature and
#      fsck clean, and the streaming Table 4 must render identically to
#      the in-memory experiment (SCALE_USERS=n overrides the population);
#   2. the budgeted pipeline — a 5M-user sharded generate → fsck →
#      streaming Table 4, each stage a separate process capped at 2 GiB
#      MaxRSS, recorded in BENCH_scale.json. Any stage over budget fails
#      the target after the numbers are written.
scalebench:
	$(GO) test -tags scale ./internal/scale -run TestStreamingPipelineByteIdentity -count=1 -v -timeout 30m
	$(GO) run ./cmd/benchjson -scale -users 5000000 -shard-size 250000 \
		-max-rss-mb 2048 -out BENCH_scale.json

bench:
	$(GO) run ./cmd/benchjson -count 5 -out BENCH_analysis.json
	$(GO) run ./cmd/benchjson -out BENCH_obs.json -pkg ./internal/obs \
		-bench '^(BenchmarkCounterAdd|BenchmarkHistogramObserve|BenchmarkContended8)$$'
	$(GO) run ./cmd/benchjson -count 5 -out BENCH_datapath.json -pkg ./internal/dataset \
		-bench '^(BenchmarkDatapath|BenchmarkJSONL(Encode|Decode))'
	$(GO) run ./cmd/benchjson -count 5 -out BENCH_journal.json -pkg ./internal/crawler \
		-bench '^BenchmarkJournal'

# querybench measures the read-side query service under load:
#   BENCH_query.json — 1M requests over a seeded /v1 mix against an
#     in-process steamquery server holding a 100k-user snapshot:
#     p50/p90/p99 latency (overall and per route), throughput, cache
#     hit rate, 304 count, and a shed/error/timeout classification.
# The run is SLO-gated by BENCH_query_slo.json: a per-route p99, shed
# rate or error rate past its committed budget exits non-zero. The
# snapshot is built fresh into a temp dir so the target needs no
# checked-in fixtures; regenerating it costs a few seconds.
querybench:
	$(eval QBDIR := $(shell mktemp -d))
	$(GO) run ./cmd/steamgen -users 100000 -seed 1 -out $(QBDIR)/query.jsonl.gz
	$(GO) run ./cmd/steamqueryload -snapshot $(QBDIR)/query.jsonl.gz \
		-requests 1000000 -seed 1 -slo BENCH_query_slo.json -out BENCH_query.json
	rm -rf $(QBDIR)

# querychaos is the overload proof (DESIGN.md §15): the same load mix
# runs while hostile actors attack the server — slowloris header
# tricklers and stalled readers (must be cut by the http.Server
# timeouts), mid-body aborts, 64-wide request bursts into an 8-slot
# admission pool (must shed 503 + Retry-After, never 5xx), a SIGHUP
# reload storm, and a corrupt-snapshot reload (must fail with the old
# state still serving, ETag unchanged). Results land in the "chaos"
# section of BENCH_query.json (the calm-weather numbers are preserved);
# the built-in invariants plus the chaos section of
# BENCH_query_slo.json gate the exit code.
querychaos:
	$(eval QCDIR := $(shell mktemp -d))
	$(GO) run ./cmd/steamgen -users 5000 -seed 1 -out $(QCDIR)/chaos.jsonl.gz
	$(GO) run ./cmd/steamqueryload -snapshot $(QCDIR)/chaos.jsonl.gz \
		-requests 20000 -seed 1 -chaos -max-inflight 8 -queue-wait 25ms \
		-route-timeout 500ms -warm-keys 8 \
		-slo BENCH_query_slo.json -out BENCH_query.json
	rm -rf $(QCDIR)

# profile captures CPU and heap profiles of the data plane's hot loops
# into ./profiles/ for `go tool pprof`: the 500k-user snapshot codec and
# the full-study render.
profile:
	mkdir -p profiles
	$(GO) test ./internal/dataset -run '^$$' \
		-bench '^BenchmarkDatapath(Encode|Decode)500k$$' \
		-cpuprofile profiles/datapath_cpu.prof -memprofile profiles/datapath_mem.prof
	$(GO) test . -run '^$$' -bench '^BenchmarkRunAllRender$$' \
		-cpuprofile profiles/analysis_cpu.prof -memprofile profiles/analysis_mem.prof

fmt:
	gofmt -l -w cmd internal

vet:
	$(GO) vet ./...
