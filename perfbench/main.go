// Command perfbench is the repository benchmark: it times the three ways
// gsv is used — the embedded durable DB (embedded-write), the wire-serving
// tier under reads with writes beside them (serve-read) and a read replica
// following a primary (replica-follow) — checks every run's outputs
// against from-scratch evaluation, and prints one JSON result line.
//
//	perfbench --workload embedded-write --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the run is split into an untraced and a traced half and the
// result carries the per-layer metrics, with every span written as JSON
// under --workdir. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"gsv/internal/oem"
)

// metric is one declared output: its name and unit as BENCHMARK.json
// lists them.
type metric struct{ name, unit string }

// e2eMetrics are reported by untraced runs on every workload. Each
// workload has one headline operation ("op"): a facade update on
// embedded-write, a wire read on serve-read, and an update becoming
// visible on the replica on replica-follow. The op's p99 is a per-layer
// metric (bench.op_p99_us): on a shared host its run-to-run spread is
// wider than any bound an end-to-end metric may declare (see README.md).
// The timed metrics are scaled to a nominal host speed (speed.go), except
// replica-follow's op_tput, which follows its writer's fixed rate.
var e2eMetrics = []metric{
	{"setup_s", "s"},
	{"op_p50_us", "us"},
	{"op_tput", "1/s"},
	{"recovery_s", "s"},
	{"heap_mb", "MB"},
}

// layerMetrics are reported by traced runs on every workload; a layer a
// workload does not exercise reads 0 there.
var layerMetrics = []metric{
	{"gsv.sync_us", "us"},
	{"store.commit_us", "us"},
	{"store.pin_ns", "ns"},
	{"core.batch_us", "us"},
	{"core.pairs_routed_per_update", "count"},
	{"core.screened_ratio", "ratio"},
	{"wal.bytes_per_update", "B"},
	{"wal.checkpoints", "count"},
	{"wal.checkpoint_ms", "ms"},
	{"query.parse_us", "us"},
	{"query.eval_us", "us"},
	{"read.object_p50_us", "us"},
	{"read.object_p99_us", "us"},
	{"read.view_p50_us", "us"},
	{"read.view_p99_us", "us"},
	{"read.query_p50_us", "us"},
	{"read.query_p99_us", "us"},
	{"warehouse.fetch_object_us", "us"},
	{"warehouse.fresh_members_us", "us"},
	{"warehouse.fetch_query_us", "us"},
	{"wire.object_overhead_us", "us"},
	{"wire.view_overhead_us", "us"},
	{"wire.query_overhead_us", "us"},
	{"warehouse.source_apply_us", "us"},
	{"warehouse.process_batch_p50_us", "us"},
	{"warehouse.process_batch_p99_us", "us"},
	{"warehouse.query_backs_per_update", "count"},
	{"warehouse.local_only_ratio", "ratio"},
	{"feed.events_per_update", "count"},
	{"replica.ship_apply_p50_us", "us"},
	{"replica.ship_apply_p99_us", "us"},
	{"replica.prop_p50_us", "us"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"bench.writer_late_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.path_coverage_pct", "%"},
	{"bench.fail_ratio", "ratio"},
	{"bench.op_samples", "count"},
	{"bench.op_p99_us", "us"},
	{"bench.speed_factor", "ratio"},
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	// tuples per relation; 0 means the workload's default size.
	tuples int
	// setups is how many times set-up runs (median reported).
	setups int
	// speed measures the host's drift; run makes one when it is nil.
	speed *speedRef
	// corrupt, when set, removes one expected member from the oracle's
	// answer for the first view, so the membership check must fail. Only
	// the self-tests set it.
	corrupt bool
}

// report is what a workload run produces.
type report struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int
	failed    int
	// problems lists every failed correctness check.
	problems []string
	// notes are human-readable lines for standard error: sample counts
	// and values not in the result line.
	notes []string
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a failed correctness check; it counts as one failed op.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
	r.failed++
}

// checkMembers compares a view's answer with the oracle's.
func (r *report) checkMembers(what string, got, want []oem.OID) {
	if !oem.SameMembers(got, want) {
		r.fail("%s: %d members, oracle says %d", what, len(got), len(want))
	}
}

// corruptFirst drops one member from the first expected answer when the
// self-tests ask for it (see config.corrupt).
func (c config) corruptFirst(i int, want []oem.OID) []oem.OID {
	if !c.corrupt || i != 0 {
		return want
	}
	if len(want) == 0 {
		return []oem.OID{"NO-SUCH-MEMBER"}
	}
	return want[1:]
}

var workloads = map[string]func(config) (*report, error){
	"embedded-write": runEmbedded,
	"serve-read":     runServe,
	"replica-follow": runReplica,
}

// result is the JSON line printed last on standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one invocation and returns the result line.
func run(cfg config) (result, *report, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return result{}, nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(names, ", "))
	}
	if cfg.setups <= 0 {
		cfg.setups = 3
	}
	if cfg.speed == nil {
		cfg.speed = newSpeedRef()
	}
	rep, err := fn(cfg)
	if err != nil {
		return result{}, nil, err
	}
	// The speed reference's buffers are not the program's.
	rep.e2e["heap_mb"] -= cfg.speed.bytes() / (1 << 20)
	if rep.attempted > 0 {
		rep.layer["bench.fail_ratio"] = float64(rep.failed) / float64(rep.attempted)
	}
	want, values := e2eMetrics, rep.e2e
	if cfg.trace {
		want, values = layerMetrics, rep.layer
	}
	res := result{
		Correct:   rep.failed == 0 && len(rep.problems) == 0,
		Attempted: max(rep.attempted, 1), Failed: rep.failed,
		Metrics: map[string]metricValue{},
	}
	for _, m := range want {
		res.Metrics[m.name] = metricValue{Value: values[m.name], Unit: m.unit}
	}
	return res, rep, nil
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "embedded-write", "embedded-write, serve-read or replica-follow")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the fixture and every op list")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "scratch directory for WAL files and traces")
	flag.Parse()
	cfg.trace = *trace != 0

	start := time.Now()
	res, rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "perfbench %s seed=%d seconds=%g trace=%v (%.1fs wall)\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, time.Since(start).Seconds())
	for _, n := range rep.notes {
		fmt.Fprintln(os.Stderr, "  "+n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-36s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "  CHECK FAILED:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// scratchDir makes a fresh directory under the workdir.
func scratchDir(cfg config, prefix string) (string, error) {
	root := filepath.Join(cfg.workdir, "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, prefix)
}

// tracePath names the span dump of a traced run.
func tracePath(cfg config) string {
	return filepath.Join(cfg.workdir, "traces", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
}
