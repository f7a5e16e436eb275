# Development entry points for gsv. Everything is stdlib Go; no external
# tools are required beyond the Go toolchain.

GO ?= go

.PHONY: all build test race chaos shard-chaos crash cover bench bench-query bench-store bench-json bench-parallel bench-mvcc bench-overload bench-gate experiments examples fuzz fmt vet ci demo-feed demo-replica trace-smoke overload-smoke clean

all: build vet test

# Exactly what .github/workflows/ci.yml runs.
ci:
	$(GO) build ./...
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; fi
	$(GO) test -race ./...
	$(GO) test -run '^$$' -bench 'BenchmarkEval(ConstPath|Wildcard)$$' -benchtime 1x ./internal/query/
	$(GO) test -run '^$$' -bench 'BenchmarkStore(Load|Save)$$' -benchtime 1x ./internal/store/
	$(MAKE) trace-smoke
	$(MAKE) overload-smoke
	$(MAKE) shard-chaos

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The fault-injection drills (CI's chaos-smoke job): kill/restart soak,
# wire reconnect/gap tests and the follow-reconnect test, all with
# fixed seeds under the race detector.
chaos:
	$(GO) test -race -count=3 -run 'TestChaosSoak|TestNetQuerySurvives|TestNetReportStreamReconnect|TestFollowFeedSurvives|TestReplicaChaosSoak' -v ./internal/warehouse/ ./cmd/gsdbwatch/ ./internal/replica/

# The federation fault drill (CI's shard-chaos job): one of four source
# shards is killed and restarted mid-workload under seeded connection
# faults; healthy partitions must keep serving, spanning reads must
# degrade to typed partial results, and repair must converge
# byte-identically to the all-healthy oracle (docs/WAREHOUSE.md).
shard-chaos:
	$(GO) test -race -count=2 -run 'TestShardChaosSoak|TestFederationPartialResultAndRecovery|TestFederationRootedViewOnDeadShard' -v ./internal/warehouse/

# The durability drills (CI's crash-smoke job): seeded kill/restart
# soaks at the WAL and checkpoint crash points, the recovery-equivalence
# property (checkpoint + tail replay == never crashing, byte for byte)
# and the WAL/checkpoint torn-write tests, all under the race detector
# (docs/DURABILITY.md).
crash:
	$(GO) test -race -count=2 -run 'TestDurableCrashSoak|TestDurableRecoveryEquivalenceProperty|TestWarehouseDurableCrashSoak|TestWALCrashPoints|TestCheckpointCrashPoints' -v . ./internal/warehouse/ ./internal/wal/

cover:
	$(GO) test -coverprofile=cover.out ./... && $(GO) tool cover -func=cover.out | tail -1

bench:
	$(GO) test -bench=. -benchmem ./...

# Query-evaluation layer benchmarks over a pinned 4x1000x5 RelationLike
# snapshot: the constant-path walk and the wildcard product search
# (docs/MVCC.md, allocation profile). CI's test job runs them for one
# iteration so they keep compiling and running.
bench-query:
	$(GO) test -run '^$$' -bench 'BenchmarkEval(ConstPath|Wildcard)$$' -benchmem ./internal/query/

# Snapshot benchmarks over a 4x2000x5 RelationLike store (~48k objects):
# Store.Load's in-place bulk build and Store.Save's clone-free walk, the
# two halves of every checkpoint (docs/DURABILITY.md). CI's test job runs
# them for one iteration so they keep compiling and running.
bench-store:
	$(GO) test -run '^$$' -bench 'BenchmarkStore(Load|Save)$$' -benchmem ./internal/store/

# Machine-readable benchmark report: experiment tables plus the E1
# maintenance micro-benchmarks, written to BENCH_<timestamp>.json
# (schema documented in EXPERIMENTS.md). CI uploads one per run.
bench-json:
	$(GO) run ./cmd/benchviews -e E1 -updates 300 -json

# Serial-vs-parallel batched maintenance benchmark (experiment E12,
# docs/API.md): the scheduler must beat the literal per-update x
# per-view loop on a multi-view workload. CI runs this as the
# bench-parallel job and uploads the JSON report.
bench-parallel:
	$(GO) run ./cmd/benchviews -e E12 -updates 400 -json

# MVCC reads-vs-maintenance interference benchmark (experiment E16,
# docs/MVCC.md): read p99 while ApplyBatch churns, batch-RWMutex
# serving baseline vs per-read snapshot pins. CI floors the
# interference ratio at 2x in bench-gate.
bench-mvcc:
	$(GO) run ./cmd/benchviews -e E16 -updates 300 -json

# Overload shedding benchmark (experiment E17, docs/WAREHOUSE.md
# "Overload & graceful drain"): goodput and p99 at 1x/4x/16x offered
# load, raw vs admission-controlled. CI floors the 16x goodput speedup
# at 2x and ceilings the shed p99 in bench-gate.
bench-overload:
	$(GO) run ./cmd/benchviews -e E17 -updates 300 -json

# Benchmark regression gate (CI's bench-gate job): regenerate the
# E12-E17 report with the baseline's configuration and compare
# the machine-independent ratios (speedup, scaling,
# recompute/incremental) against the committed baseline in bench/.
# Enforced: E14 replica scaling, E15 federated shard scaling and the E1
# recompute/incremental ratios, whose margins dwarf run-to-run noise;
# the short-wall-clock E12/E13 speedups and E14 p99 propagation
# latencies swing too much between runs to gate relatively and print as
# informational lines instead. The absolute bounds carry the headline
# claims regardless of baseline drift: 4 shards must hold at least 2x
# the 1-shard maintenance throughput (-floor), and replica propagation
# p99 must stay under the 25ms freshness SLO (-ceiling), and the E16
# MVCC interference ratio must hold at least 2x (-floor), and at 16x
# offered load the admission-controlled server's goodput must hold at
# least 2x the unprotected baseline's with shed p99 under 120ms
# (E17 -floor/-ceiling; the budget is latency-calibrated, so the claim
# transfers across hosts).
bench-gate:
	GOMAXPROCS=4 $(GO) run ./cmd/benchviews -e E12,E13,E14,E15,E16,E17 -updates 300 -json -out bench-current.json
	$(GO) run ./cmd/benchgate -baseline bench/BENCH_20260808.json -current bench-current.json -tolerance 0.4 -gate '^(E14.*scaling|E15|bench)' -floor 'E15\[shards=4\]\.scaling=2' -floor 'E16.*\.speedup=2' -floor 'E17\[run=16x-shed\]\.speedup=2' -ceiling 'E14.*\.p99=25' -ceiling 'E17\[run=16x-shed\]\.p99=120'

# The paper-reproduction tables (EXPERIMENTS.md records a run).
experiments:
	$(GO) run ./cmd/benchviews -updates 300

examples:
	@for e in quickstart webcache accesscontrol profstudent warehouse extensions distributed; do \
		echo "=== examples/$$e ==="; \
		$(GO) run ./examples/$$e || exit 1; \
	done

# Short fuzz sessions on every fuzz target (seed corpora also run under
# plain `make test`).
fuzz:
	$(GO) test -fuzz='^FuzzParse$$' -fuzztime=30s ./internal/query/
	$(GO) test -fuzz='^FuzzParsePathExpr$$' -fuzztime=30s ./internal/query/
	$(GO) test -fuzz='^FuzzLoad$$' -fuzztime=30s ./internal/store/
	$(GO) test -fuzz='^FuzzNetFrame$$' -fuzztime=30s ./internal/warehouse/
	$(GO) test -fuzz='^FuzzDecodeRecord$$' -fuzztime=30s ./internal/wal/

# End-to-end changefeed demo: gsdbserve hosts a view and drives updates;
# gsdbwatch -follow tails its delta feed (docs/CHANGEFEED.md). Built
# binaries, not `go run`, so the server can be killed by pid.
demo-feed:
	@mkdir -p bin
	@$(GO) build -o bin/gsdbserve ./cmd/gsdbserve
	@$(GO) build -o bin/gsdbwatch ./cmd/gsdbwatch
	@./bin/gsdbserve -addr 127.0.0.1:7071 -sample relations -tuples 20 \
		-updates 60 -interval 100ms \
		-feed 'HOT=SELECT REL.r0.tuple X WHERE X.age > 30' & \
	SERVE=$$!; sleep 1; \
	./bin/gsdbwatch -addr 127.0.0.1:7071 -follow HOT -from 0 -for 8s; \
	kill $$SERVE 2>/dev/null || true

# End-to-end replica demo (CI's replica-smoke job): gsdbserve hosts a
# view and drives updates; gsdbreplica bootstraps from a snapshot, tails
# the multi-view changefeed and serves reads; gsdbwatch follows the
# REPLICA's republished feed and then renders the replica's own stats —
# including the gsv_replica_* staleness gauges (docs/REPLICA.md).
demo-replica:
	@mkdir -p bin
	@$(GO) build -o bin/gsdbserve ./cmd/gsdbserve
	@$(GO) build -o bin/gsdbreplica ./cmd/gsdbreplica
	@$(GO) build -o bin/gsdbwatch ./cmd/gsdbwatch
	@./bin/gsdbserve -addr 127.0.0.1:7081 -sample relations -tuples 20 \
		-updates 80 -interval 100ms \
		-feed 'HOT=SELECT REL.r0.tuple X WHERE X.age > 30' & \
	SERVE=$$!; sleep 1; \
	./bin/gsdbreplica -primary 127.0.0.1:7081 -addr 127.0.0.1:7082 \
		-name demo -max-lag-age 5s & \
	REPL=$$!; sleep 1; \
	./bin/gsdbwatch -addr 127.0.0.1:7082 -follow HOT -from 0 -snapshot -for 6s; \
	./bin/gsdbwatch -addr 127.0.0.1:7082 -stats -for 2s; \
	kill $$REPL $$SERVE 2>/dev/null || true

# Trace smoke (CI's trace-smoke job): a durable primary under live
# updates plus one replica, then assert the observability tentpole end
# to end — span waterfalls render from BOTH nodes over the trace wire
# op, and both /readyz probes answer healthy while in bounds.
trace-smoke:
	@mkdir -p bin
	@$(GO) build -o bin/gsdbserve ./cmd/gsdbserve
	@$(GO) build -o bin/gsdbreplica ./cmd/gsdbreplica
	@$(GO) build -o bin/gsdbwatch ./cmd/gsdbwatch
	@rm -rf /tmp/gsv-trace-smoke && mkdir -p /tmp/gsv-trace-smoke
	@./bin/gsdbserve -addr 127.0.0.1:7083 -sample relations -tuples 20 \
		-updates 120 -interval 25ms -data /tmp/gsv-trace-smoke \
		-feed 'HOT=SELECT REL.r0.tuple X WHERE X.age > 30' \
		-debugaddr 127.0.0.1:8083 & \
	SERVE=$$!; sleep 1; \
	./bin/gsdbreplica -primary 127.0.0.1:7083 -addr 127.0.0.1:7084 \
		-name smoke -max-lag-age 30s -debugaddr 127.0.0.1:8084 & \
	REPL=$$!; sleep 4; \
	rc=0; \
	./bin/gsdbwatch -addr 127.0.0.1:7083 -trace -last 0 | tee /tmp/gsv-trace-smoke/primary.out; \
	grep -q 'maintain' /tmp/gsv-trace-smoke/primary.out || \
		{ echo "trace-smoke: no maintain span on primary" >&2; rc=1; }; \
	grep -q ' wal ' /tmp/gsv-trace-smoke/primary.out || \
		{ echo "trace-smoke: no WAL span on primary" >&2; rc=1; }; \
	./bin/gsdbwatch -addr 127.0.0.1:7084 -trace -last 0 | tee /tmp/gsv-trace-smoke/replica.out; \
	grep -q ' apply ' /tmp/gsv-trace-smoke/replica.out || \
		{ echo "trace-smoke: no apply span on replica" >&2; rc=1; }; \
	grep -oh 'trace [^ ]*' /tmp/gsv-trace-smoke/primary.out | sort -u > /tmp/gsv-trace-smoke/pids; \
	grep -oh 'trace [^ ]*' /tmp/gsv-trace-smoke/replica.out | sort -u > /tmp/gsv-trace-smoke/rids; \
	comm -12 /tmp/gsv-trace-smoke/pids /tmp/gsv-trace-smoke/rids | grep -q . || \
		{ echo "trace-smoke: no trace id joins across primary and replica" >&2; rc=1; }; \
	curl -fsS -o /tmp/gsv-trace-smoke/p-ready http://127.0.0.1:8083/readyz && \
	grep -q ready /tmp/gsv-trace-smoke/p-ready || \
		{ echo "trace-smoke: primary /readyz unhealthy" >&2; rc=1; }; \
	curl -fsS -o /tmp/gsv-trace-smoke/r-ready http://127.0.0.1:8084/readyz && \
	grep -q ready /tmp/gsv-trace-smoke/r-ready || \
		{ echo "trace-smoke: replica /readyz unhealthy" >&2; rc=1; }; \
	curl -fsS -o /tmp/gsv-trace-smoke/p-metrics http://127.0.0.1:8083/metrics && \
	grep -q 'gsv_propagation_seconds' /tmp/gsv-trace-smoke/p-metrics || \
		{ echo "trace-smoke: no propagation histogram on primary" >&2; rc=1; }; \
	curl -fsS -o /tmp/gsv-trace-smoke/r-metrics http://127.0.0.1:8084/metrics && \
	grep -q 'gsv_view_watermark_seconds' /tmp/gsv-trace-smoke/r-metrics || \
		{ echo "trace-smoke: no watermark gauge on replica" >&2; rc=1; }; \
	kill $$REPL $$SERVE 2>/dev/null || true; \
	exit $$rc

# Overload smoke (CI's overload-smoke job): gsdbserve runs with the
# weighted admission semaphore while gsdbload drives 16x offered load of
# budget-stamped CPU-bound queries; the server must shed (typed
# retryable errors) yet keep recording goodput — and goodput is
# by definition within the 20ms budget, so admitted-read latency is
# bounded by construction. Then the OVERLOAD stats section must render
# over the wire and SIGTERM must exit 0 through the graceful drain
# (docs/WAREHOUSE.md, "Overload & graceful drain").
overload-smoke:
	@mkdir -p bin
	@$(GO) build -o bin/gsdbserve ./cmd/gsdbserve
	@$(GO) build -o bin/gsdbload ./cmd/gsdbload
	@$(GO) build -o bin/gsdbwatch ./cmd/gsdbwatch
	@./bin/gsdbserve -addr 127.0.0.1:7085 -sample relations -tuples 400 \
		-max-inflight 4 -max-queue 8 -queue-timeout 10ms -min-slack 10ms \
		-idle-timeout 5s -drain-timeout 5s -debugaddr 127.0.0.1:8085 & \
	SERVE=$$!; sleep 1; \
	rc=0; \
	./bin/gsdbload -addr 127.0.0.1:7085 -clients 64 -duration 2s \
		-budget 20ms -shed-backoff 80ms -require-sheds \
		-query 'SELECT REL.r0.tuple X WHERE X.age > 100000' || \
		{ echo "overload-smoke: load run failed" >&2; rc=1; }; \
	./bin/gsdbwatch -addr 127.0.0.1:7085 -stats | tee /tmp/gsv-overload-smoke.out; \
	grep -q 'OVERLOAD' /tmp/gsv-overload-smoke.out || \
		{ echo "overload-smoke: no OVERLOAD stats section" >&2; rc=1; }; \
	kill -TERM $$SERVE 2>/dev/null; \
	wait $$SERVE; st=$$?; \
	[ $$st -eq 0 ] || { echo "overload-smoke: SIGTERM drain exited $$st, want 0" >&2; rc=1; }; \
	exit $$rc

clean:
	rm -rf bin
	rm -f cover.out test_output.txt bench_output.txt
