// Command gsdbwatch connects to a served GSDB source (see cmd/gsdbserve)
// and watches a view in one of two modes:
//
//   - Default: define a materialized view at this process — the warehouse
//     — and print its membership whenever an incoming update report
//     changes it. Maintenance runs here, with the full protocol cost.
//   - -follow NAME: tail the changefeed of a view maintained at the
//     server (gsdbserve -feed), printing each delta event. Maintenance
//     runs there; this process only consumes cursors and deltas, and can
//     resume from its last cursor after a disconnect (docs/CHANGEFEED.md).
//
// Usage:
//
//	gsdbwatch -addr 127.0.0.1:7070 \
//	          -view "SELECT REL.r0.tuple X WHERE X.age > 30" \
//	          [-cache full|partial|none] [-for 30s]
//	gsdbwatch -addr 127.0.0.1:7070 -follow HOT [-from N] [-snapshot] \
//	          [-policy block|drop|disconnect] [-events N] [-for 30s]
//	gsdbwatch -addr 127.0.0.1:7070 -stats [-watch] [-every 2s] [-for 30s]
//	gsdbwatch -addr 127.0.0.1:7070 -trace [VIEW] [-watch] [-every 2s]
//
// -stats fetches the server's metrics registry and recent maintenance
// traces over the wire (gsdbserve with observability; see
// docs/OBSERVABILITY.md) and renders per-view stats; -watch refreshes
// every -every until -for elapses. A server that predates the stats
// request is reported as such instead of printing zeros.
//
// -trace fetches the node's recent propagation span chains — where each
// stamped update's time went between ingestion and visibility — and
// renders one waterfall per trace, optionally filtered to one VIEW.
// Point it at a primary for WAL + maintenance spans, at a replica for
// apply spans; the same trace ID on both nodes is one update's
// cross-node timeline (docs/OBSERVABILITY.md, "Propagation tracing").
//
// -from -1 (default) tails from now; -from 0 replays the whole retained
// history; -from N resumes after cursor N. When the cursor has been
// evicted from the server's replay ring, rerun with -snapshot to receive
// a full membership snapshot and tail from there.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"gsv/internal/feed"
	"gsv/internal/obs"
	"gsv/internal/oem"
	"gsv/internal/query"
	"gsv/internal/warehouse"
)

// fatal logs at error level and exits — the slog analogue of log.Fatalf.
func fatal(msg string, args ...any) {
	slog.Error(msg, args...)
	os.Exit(1)
}

// setupLogging installs the process-wide slog handler (the same
// handler gsdbserve uses, so a pipeline of both logs uniformly).
func setupLogging(level string) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		fmt.Fprintf(os.Stderr, "-log-level %q: %v\n", level, err)
		os.Exit(2)
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})))
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7070", "source address")
		vq       = flag.String("view", "SELECT REL.r0.tuple X WHERE X.age > 30", "view definition query")
		cache    = flag.String("cache", "none", "auxiliary cache: none|partial|full")
		dur      = flag.Duration("for", 30*time.Second, "how long to watch")
		follow   = flag.String("follow", "", "follow a server-maintained view's changefeed instead of defining a view here")
		from     = flag.Int64("from", -1, "changefeed resume cursor: -1 tail, 0 full history, N resume after N")
		snap     = flag.Bool("snapshot", false, "fall back to a full snapshot when the resume cursor has expired")
		policy   = flag.String("policy", "", "slow-consumer policy to request: block|drop|disconnect (server default when empty)")
		nevents  = flag.Int("events", 0, "stop -follow after this many events (0 = until -for elapses)")
		state    = flag.String("state", "", "with -follow, persist the last consumed cursor to this file and resume from it on restart")
		stats    = flag.Bool("stats", false, "fetch and render the server's per-view stats instead of watching a view")
		trace    = flag.Bool("trace", false, "fetch and render the node's propagation span chains (optional positional arg filters to one view)")
		watch    = flag.Bool("watch", false, "with -stats/-trace, refresh until -for elapses")
		every    = flag.Duration("every", 2*time.Second, "refresh interval for -stats/-trace -watch")
		last     = flag.Int("last", 8, "with -trace, render only the newest N traces (0 = all retained)")
		logLevel = flag.String("log-level", "info", "log verbosity: debug|info|warn|error")
	)
	flag.Parse()
	setupLogging(*logLevel)

	if *stats {
		err := runStats(os.Stdout, statsConfig{
			addr: *addr, watch: *watch, every: *every, dur: *dur,
		})
		if err != nil {
			fatal("stats failed", "err", err)
		}
		return
	}

	if *trace {
		err := runTrace(os.Stdout, traceConfig{
			addr: *addr, view: flag.Arg(0), last: *last,
			watch: *watch, every: *every, dur: *dur,
		})
		if err != nil {
			fatal("trace failed", "err", err)
		}
		return
	}

	if *follow != "" {
		err := followFeed(os.Stdout, followConfig{
			addr: *addr, view: *follow, from: *from, snapshot: *snap,
			policy: *policy, maxEvents: *nevents, dur: *dur, stateFile: *state,
		})
		if err != nil {
			fatal("follow failed", "view", *follow, "err", err)
		}
		return
	}

	mode, err := parseCache(*cache)
	if err != nil {
		fatal("bad -cache mode", "err", err)
	}
	if err := watchView(os.Stdout, watchConfig{
		addr: *addr, query: *vq, cache: mode, dur: *dur,
	}); err != nil {
		fatal("watch failed", "err", err)
	}
}

func parseCache(s string) (warehouse.CacheMode, error) {
	switch strings.ToLower(s) {
	case "none":
		return warehouse.CacheNone, nil
	case "partial":
		return warehouse.CachePartial, nil
	case "full":
		return warehouse.CacheFull, nil
	default:
		return warehouse.CacheNone, fmt.Errorf("unknown cache mode %q", s)
	}
}

// watchConfig parameterizes the local-view (warehouse) mode.
type watchConfig struct {
	addr  string
	query string
	cache warehouse.CacheMode
	dur   time.Duration
	// maxReports stops the watch after this many processed reports;
	// 0 means watch until dur elapses. Tests use it for determinism.
	maxReports int
}

// watchView runs the default mode: a warehouse at this process maintains
// the view over the report stream and prints membership changes to out.
func watchView(out io.Writer, cfg watchConfig) error {
	q, err := query.Parse(cfg.query)
	if err != nil {
		return fmt.Errorf("view query: %w", err)
	}
	tr := warehouse.NewTransport(0)
	remote, err := warehouse.Dial("gsdbserve", cfg.addr, tr)
	if err != nil {
		return fmt.Errorf("dial %s: %w", cfg.addr, err)
	}
	defer remote.Close()

	w := warehouse.New(remote)
	v, err := w.DefineView("WATCH", q, warehouse.ViewConfig{Screening: true, Cache: cfg.cache})
	if err != nil {
		return fmt.Errorf("define view: %w", err)
	}
	last, err := printMembers(out, w, v, nil)
	if err != nil {
		return err
	}

	seen := 0
	deadline := time.Now().Add(cfg.dur)
	for time.Now().Before(deadline) {
		reports, _ := remote.WaitReportsTimeout(1, 100*time.Millisecond)
		// A maintenance failure (or a report-stream gap after the server
		// restarted) quarantines the view rather than ending the watch;
		// repair resyncs it and the watch continues.
		if err := w.ProcessBatch(reports); err != nil {
			fmt.Fprintf(out, "maintenance error, view quarantined: %v\n", err)
		}
		repaired := false
		if len(w.StaleViews()) > 0 {
			if n, err := w.RepairAll(); err != nil {
				fmt.Fprintf(out, "repair failed (will retry): %v\n", err)
			} else if n > 0 {
				fmt.Fprintf(out, "view repaired by resync\n")
				repaired = true
			}
		}
		if len(reports) == 0 && !repaired {
			continue
		}
		seen += len(reports)
		if last, err = printMembers(out, w, v, last); err != nil {
			return err
		}
		if cfg.maxReports > 0 && seen >= cfg.maxReports {
			break
		}
	}
	fmt.Fprintf(out, "\nwatched %d reports; wire traffic: %s\n", seen, tr)
	fmt.Fprintf(out, "view stats: %d reports, %d screened, %d fully local, %d query backs, state %s\n",
		v.Stats.Reports.Value(), v.Stats.Screened.Value(), v.Stats.LocalOnly.Value(),
		v.Stats.QueryBacks.Value(), v.State())
	return nil
}

// printMembers prints the membership when it changed and returns it.
// It reads strictly: a quarantined view reports its staleness instead of
// a possibly-lagging membership, and the watch keeps running while the
// repair machinery catches up.
func printMembers(out io.Writer, w *warehouse.Warehouse, v *warehouse.WView, last []oem.OID) ([]oem.OID, error) {
	members, err := w.FreshMembers(v.Name)
	if errors.Is(err, warehouse.ErrStaleView) {
		fmt.Fprintf(out, "view stale, awaiting repair: %v\n", err)
		return last, nil
	}
	if err != nil {
		return nil, fmt.Errorf("members: %w", err)
	}
	if last != nil && oem.SameMembers(members, last) {
		return members, nil
	}
	fmt.Fprintf(out, "value(WATCH) = %v\n", members)
	return members, nil
}

// statsConfig parameterizes -stats mode.
type statsConfig struct {
	addr  string
	watch bool
	every time.Duration
	dur   time.Duration
	// maxRounds stops -watch after this many renders; 0 means until dur
	// elapses. Tests use it for determinism.
	maxRounds int
}

// runStats fetches the server's registry snapshot and recent traces over
// the wire and renders per-view stats, optionally refreshing.
func runStats(out io.Writer, cfg statsConfig) error {
	remote, err := warehouse.Dial("gsdbserve", cfg.addr, warehouse.NewTransport(0))
	if err != nil {
		return fmt.Errorf("dial %s: %w", cfg.addr, err)
	}
	defer remote.Close()

	deadline := time.Now().Add(cfg.dur)
	rounds := 0
	for {
		payload, err := remote.FetchStats()
		if err != nil {
			if errors.Is(err, warehouse.ErrUnsupportedRequest) {
				return fmt.Errorf("the server at %s does not support the stats request — it predates the observability protocol; upgrade gsdbserve or use -view/-follow instead", cfg.addr)
			}
			return err
		}
		renderStats(out, payload)
		rounds++
		if !cfg.watch || (cfg.maxRounds > 0 && rounds >= cfg.maxRounds) || !time.Now().Before(deadline) {
			return nil
		}
		time.Sleep(cfg.every)
	}
}

// renderStats prints one per-view stats table plus the most recent
// maintenance traces from a stats payload.
func renderStats(out io.Writer, p *warehouse.StatsPayload) {
	views := map[string]bool{}
	var order []string
	for _, m := range p.Registry.Metrics {
		if m.Name != "gsv_view_reports_total" {
			continue
		}
		if v := m.Labels["view"]; v != "" && !views[v] {
			views[v] = true
			order = append(order, v)
		}
	}
	sort.Strings(order)
	fmt.Fprintf(out, "server stats @ %s\n", p.Registry.TakenAt.Format(time.RFC3339))
	if len(order) == 0 {
		fmt.Fprintln(out, "no views registered")
	} else {
		fmt.Fprintf(out, "%-12s %-10s %8s %8s %8s %8s %8s %8s %8s %12s\n",
			"VIEW", "STATE", "REPORTS", "SCREENED", "LOCAL", "QBACKS", "INS", "DEL", "REPAIRS", "AVG-MAINT")
		for _, view := range order {
			get := func(name string) float64 {
				mp, _ := p.Registry.Get(name, obs.L("view", view))
				return mp.Value
			}
			avg := "-"
			if mp, ok := p.Registry.Get("gsv_view_maintain_seconds", obs.L("view", view)); ok && mp.Count > 0 {
				avg = fmt.Sprintf("%.1fµs", mp.Sum/float64(mp.Count)*1e6)
			}
			state := "-"
			if mp, ok := p.Registry.Get("gsv_view_state", obs.L("view", view)); ok {
				state = warehouse.ViewState(int32(mp.Value)).String()
			}
			fmt.Fprintf(out, "%-12s %-10s %8.0f %8.0f %8.0f %8.0f %8.0f %8.0f %8.0f %12s\n",
				view, state,
				get("gsv_view_reports_total"), get("gsv_view_screened_total"),
				get("gsv_view_local_only_total"), get("gsv_view_query_backs_total"),
				get("gsv_view_delta_inserts_total"), get("gsv_view_delta_deletes_total"),
				get("gsv_view_repairs_total"), avg)
		}
	}
	renderReplicaStats(out, p)
	renderSourceStats(out, p)
	renderStoreStats(out, p)
	renderOverloadStats(out, p)
	if ws := p.RemoteWire; ws != nil {
		fmt.Fprintf(out, "client wire: reconnects=%d retries=%d gaps=%d bad-frames=%d\n",
			ws.QueryReconnects+ws.ReportReconnects, ws.Retries, ws.Gaps, ws.BadFrames)
		if ws.LastDecodeErr != "" {
			fmt.Fprintf(out, "last report decode error: %s\n", ws.LastDecodeErr)
		}
	}
	if n := len(p.Traces); n > 0 {
		show := p.Traces
		if len(show) > 5 {
			show = show[len(show)-5:]
		}
		fmt.Fprintf(out, "recent traces (%d retained):\n", n)
		for _, tr := range show {
			fmt.Fprintf(out, "  seq=%d %s view=%s outcome=%s qbacks=%d helpers=%d +%d -%d %.1fµs\n",
				tr.Seq, tr.Kind, tr.View, tr.Outcome, tr.QueryBacks,
				tr.Helpers.Total(), tr.Inserts, tr.Deletes, float64(tr.TotalNanos)/1e3)
		}
	}
}

// renderReplicaStats prints one line per replica when the stats payload
// came from a gsdbreplica node (docs/REPLICA.md): its staleness lag,
// applied feed traffic, resilience counters and gated reads. A primary's
// payload carries no gsv_replica_* metrics and prints nothing.
func renderReplicaStats(out io.Writer, p *warehouse.StatsPayload) {
	replicas := map[string]bool{}
	var order []string
	for _, m := range p.Registry.Metrics {
		if m.Name != "gsv_replica_lag_seq" {
			continue
		}
		if r := m.Labels["replica"]; r != "" && !replicas[r] {
			replicas[r] = true
			order = append(order, r)
		}
	}
	if len(order) == 0 {
		return
	}
	sort.Strings(order)
	fmt.Fprintf(out, "%-12s %8s %10s %12s %8s %8s %8s %8s %8s\n",
		"REPLICA", "LAG-SEQ", "LAG-AGE", "APPLIED-SEQ", "EVENTS", "INS", "DEL", "REDIALS", "GATED")
	for _, name := range order {
		get := func(metric string, extra ...obs.Label) float64 {
			mp, _ := p.Registry.Get(metric, append(extra, obs.L("replica", name))...)
			return mp.Value
		}
		fmt.Fprintf(out, "%-12s %8.0f %10s %12.0f %8.0f %8.0f %8.0f %8.0f %8.0f\n",
			name,
			get("gsv_replica_lag_seq"),
			fmt.Sprintf("%.2fs", get("gsv_replica_lag_seconds")),
			get("gsv_replica_applied_seq"),
			get("gsv_replica_applied_events_total"),
			get("gsv_replica_applied_deltas_total", obs.L("op", "insert")),
			get("gsv_replica_applied_deltas_total", obs.L("op", "delete")),
			get("gsv_replica_feed_redials_total"),
			get("gsv_replica_rejected_reads_total"))
	}
}

// renderSourceStats prints one line per federated source when the
// stats payload came from a federated node (docs/WAREHOUSE.md,
// "Multi-source federation & failure model"): its supervisor state,
// circuit-breaker counters and ingest watermark age, plus one summary
// line of the federation's cross-shard traffic. A single-source
// payload carries no gsv_source_state metrics and prints nothing.
func renderSourceStats(out io.Writer, p *warehouse.StatsPayload) {
	sources := map[string]bool{}
	var order []string
	for _, m := range p.Registry.Metrics {
		if m.Name != "gsv_source_state" {
			continue
		}
		if s := m.Labels["source"]; s != "" && !sources[s] {
			sources[s] = true
			order = append(order, s)
		}
	}
	if len(order) == 0 {
		return
	}
	sort.Strings(order)
	fmt.Fprintf(out, "%-12s %-10s %8s %8s %10s %12s\n",
		"SOURCE", "STATE", "TRIPS", "PROBES", "DEGR-READS", "WATERMARK")
	for _, name := range order {
		get := func(metric string) float64 {
			mp, _ := p.Registry.Get(metric, obs.L("source", name))
			return mp.Value
		}
		state := "-"
		if mp, ok := p.Registry.Get("gsv_source_state", obs.L("source", name)); ok {
			state = warehouse.SourceState(int32(mp.Value)).String()
		}
		// The watermark gauge is the newest drained origin stamp as Unix
		// seconds; render its age at snapshot time (0 = nothing drained).
		watermark := "-"
		if wm := get("gsv_source_watermark_seconds"); wm > 0 {
			age := p.Registry.TakenAt.Sub(time.Unix(0, int64(wm*1e9)))
			watermark = fmt.Sprintf("%.2fs ago", age.Seconds())
		}
		fmt.Fprintf(out, "%-12s %-10s %8.0f %8.0f %10.0f %12s\n",
			name, state,
			get("gsv_source_trips_total"), get("gsv_source_probes_total"),
			get("gsv_source_degraded_reads_total"), watermark)
	}
	fed := func(metric string) float64 {
		mp, _ := p.Registry.Get(metric)
		return mp.Value
	}
	if n := fed("gsv_federation_sources"); n > 0 {
		fmt.Fprintf(out, "federation: sources=%.0f cross-fetches=%.0f batched=%.0f partial-reads=%.0f\n",
			n, fed("gsv_federation_cross_fetches_total"),
			fed("gsv_federation_cross_batched_total"),
			fed("gsv_federation_partial_reads_total"))
	}
}

// renderStoreStats prints one line per store exporting MVCC gauges
// (docs/MVCC.md): the committed sequence, how many versions the history
// ring retains and back to which sequence, live snapshot pins and the
// reclamation counters. A payload from a node without gsv_store_*
// metrics prints nothing.
func renderStoreStats(out io.Writer, p *warehouse.StatsPayload) {
	stores := map[string]bool{}
	var order []string
	for _, m := range p.Registry.Metrics {
		if m.Name != "gsv_store_seq" {
			continue
		}
		if s := m.Labels["store"]; s != "" && !stores[s] {
			stores[s] = true
			order = append(order, s)
		}
	}
	if len(order) == 0 {
		return
	}
	sort.Strings(order)
	fmt.Fprintf(out, "%-16s %10s %10s %12s %8s %8s %10s\n",
		"STORE", "SEQ", "VERSIONS", "OLDEST-SEQ", "PINNED", "TAKEN", "RECLAIMED")
	for _, name := range order {
		get := func(metric string) float64 {
			mp, _ := p.Registry.Get(metric, obs.L("store", name))
			return mp.Value
		}
		fmt.Fprintf(out, "%-16s %10.0f %10.0f %12.0f %8.0f %8.0f %10.0f\n",
			name,
			get("gsv_store_seq"),
			get("gsv_store_versions_retained"),
			get("gsv_store_oldest_retained_seq"),
			get("gsv_store_snapshots_pinned"),
			get("gsv_store_snapshots_taken_total"),
			get("gsv_store_versions_reclaimed_total"))
	}
}

// renderOverloadStats prints one line per admission controller when the
// stats payload came from a node with overload protection wired in
// (docs/WAREHOUSE.md, "Overload & graceful drain"): live inflight
// weight, queue depth, connection and stream gauges, the shed counters
// split by class, and drain/accept-retry resilience counters. A shard
// is identified by its extra label (source on federated nodes, node on
// replicas); a single-source payload prints one unlabeled row.
func renderOverloadStats(out io.Writer, p *warehouse.StatsPayload) {
	type row struct {
		name  string
		label obs.Label
	}
	seen := map[string]bool{}
	var order []row
	for _, m := range p.Registry.Metrics {
		if m.Name != "gsv_overload_inflight" {
			continue
		}
		r := row{name: "-"}
		for _, key := range []string{"source", "node"} {
			if v := m.Labels[key]; v != "" {
				r = row{name: v, label: obs.L(key, v)}
				break
			}
		}
		if !seen[r.name] {
			seen[r.name] = true
			order = append(order, r)
		}
	}
	if len(order) == 0 {
		return
	}
	sort.Slice(order, func(i, j int) bool { return order[i].name < order[j].name })
	fmt.Fprintf(out, "%-12s %8s %6s %6s %8s %10s %10s %10s %8s %7s %8s\n",
		"OVERLOAD", "INFLIGHT", "QUEUE", "CONNS", "STREAMS",
		"SHED-CONN", "SHED-STRM", "SHED-READ", "EXPIRED", "DRAINS", "ACC-RTRY")
	for _, r := range order {
		get := func(metric string, extra ...obs.Label) float64 {
			if r.label.Key != "" {
				extra = append(extra, r.label)
			}
			mp, _ := p.Registry.Get(metric, extra...)
			return mp.Value
		}
		fmt.Fprintf(out, "%-12s %8.0f %6.0f %6.0f %8.0f %10.0f %10.0f %10.0f %8.0f %7.0f %8.0f\n",
			r.name,
			get("gsv_overload_inflight"), get("gsv_overload_queue"),
			get("gsv_overload_conns"), get("gsv_overload_streams"),
			get("gsv_overload_shed_total", obs.L("class", "conn")),
			get("gsv_overload_shed_total", obs.L("class", "stream")),
			get("gsv_overload_shed_total", obs.L("class", "read")),
			get("gsv_overload_expired_total"),
			get("gsv_overload_drains_total"),
			get("gsv_overload_accept_retries_total"))
	}
}

// traceConfig parameterizes -trace mode.
type traceConfig struct {
	addr  string
	view  string // filter; empty renders every view's chains
	last  int    // newest traces to render; 0 = all retained
	watch bool
	every time.Duration
	dur   time.Duration
	// maxRounds stops -watch after this many renders; 0 means until dur
	// elapses. Tests use it for determinism.
	maxRounds int
}

// runTrace fetches the node's propagation span chains over the wire and
// renders one waterfall per trace, optionally refreshing.
func runTrace(out io.Writer, cfg traceConfig) error {
	remote, err := warehouse.Dial("gsdbwatch", cfg.addr, warehouse.NewTransport(0))
	if err != nil {
		return fmt.Errorf("dial %s: %w", cfg.addr, err)
	}
	defer remote.Close()

	deadline := time.Now().Add(cfg.dur)
	rounds := 0
	for {
		payload, err := remote.FetchTrace(cfg.view)
		if err != nil {
			if errors.Is(err, warehouse.ErrUnsupportedRequest) {
				return fmt.Errorf("the node at %s does not support the trace request — it predates propagation tracing (or runs with observability off); upgrade it or use -stats instead", cfg.addr)
			}
			return err
		}
		renderChains(out, payload, cfg.last)
		rounds++
		if !cfg.watch || (cfg.maxRounds > 0 && rounds >= cfg.maxRounds) || !time.Now().Before(deadline) {
			return nil
		}
		time.Sleep(cfg.every)
	}
}

// renderChains prints one waterfall per trace: the spans of every chain
// sharing a trace ID, laid out on a common time axis starting at the
// update's ingestion instant. Only the newest `last` traces render
// (0 = all retained; the header reports the full counts either way).
// Chains fetched from a single node show that node's half; merging
// both nodes' output by trace ID gives the full cross-node timeline.
func renderChains(out io.Writer, p *warehouse.TracePayload, last int) {
	fmt.Fprintf(out, "propagation chains from %s (%d retained, %d total)\n",
		p.Node, len(p.Chains), p.Total)
	groups := map[string][]obs.SpanChain{}
	var order []string
	for _, c := range p.Chains {
		if _, ok := groups[c.TraceID]; !ok {
			order = append(order, c.TraceID)
		}
		groups[c.TraceID] = append(groups[c.TraceID], c)
	}
	if len(order) == 0 {
		fmt.Fprintln(out, "no chains recorded yet (drive some stamped updates first)")
		return
	}
	if last > 0 && len(order) > last {
		order = order[len(order)-last:]
	}
	for _, id := range order {
		chains := groups[id]
		var spans []obs.Span
		var end int64
		for _, c := range chains {
			spans = append(spans, c.Spans...)
			if e := c.EndNanos(); e > end {
				end = e
			}
		}
		sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
		first := chains[0]
		fmt.Fprintf(out, "trace %s seq=%d %s origin=%s visible=+%s\n",
			id, first.Seq, first.Kind,
			time.Unix(0, first.Origin).Format("15:04:05.000"),
			time.Duration(end).Round(time.Microsecond))
		for _, s := range spans {
			target := s.Node
			if s.View != "" {
				target += "/" + s.View
			}
			fmt.Fprintf(out, "  %-20s %-16s %10s %10s  %s\n",
				target, s.Stage,
				"+"+time.Duration(s.Start).Round(time.Microsecond).String(),
				time.Duration(s.Nanos).Round(time.Microsecond).String(),
				spanBar(s.Start, s.Nanos, end))
		}
	}
}

// spanBar renders a span's position within the trace window as a
// fixed-width waterfall track.
func spanBar(start, nanos, window int64) string {
	const width = 32
	if window <= 0 {
		window = 1
	}
	b := []byte(strings.Repeat(".", width))
	lo := int(start * width / window)
	hi := int((start + nanos) * width / window)
	if lo < 0 {
		lo = 0
	}
	if lo >= width {
		lo = width - 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	if hi > width {
		hi = width
	}
	for i := lo; i < hi; i++ {
		b[i] = '#'
	}
	return string(b)
}

// followConfig parameterizes -follow mode.
type followConfig struct {
	addr     string
	view     string
	from     int64 // -1 tail, >= 0 resume after cursor
	snapshot bool
	policy   string
	// maxEvents stops after this many events; 0 means follow until dur.
	maxEvents int
	dur       time.Duration
	// stateFile, when set, persists the last consumed cursor after every
	// event; a restart resumes from it (overriding from) so the watcher
	// never re-prints events it already acknowledged.
	stateFile string
}

// cursorState is the JSON payload of a -state file.
type cursorState struct {
	View   string `json:"view"`
	Cursor uint64 `json:"cursor"`
}

// loadCursorState reads a -state file. A missing file is (zero, false,
// nil): a fresh watcher.
func loadCursorState(path string) (cursorState, bool, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return cursorState{}, false, nil
	}
	if err != nil {
		return cursorState{}, false, err
	}
	var st cursorState
	if err := json.Unmarshal(b, &st); err != nil {
		return cursorState{}, false, fmt.Errorf("%s: %w", path, err)
	}
	return st, true, nil
}

// saveCursorState atomically replaces the -state file (temp + rename),
// so a crash mid-write leaves the previous cursor intact.
func saveCursorState(path, view string, cursor uint64) error {
	b, err := json.Marshal(cursorState{View: view, Cursor: cursor})
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// feedIdleTimeout bounds a follow's dial and handshake and each wait for
// the next frame. The server's progress heartbeats (500ms by default)
// keep a live stream talking, so a silence this long means a dead or
// hung peer, and the follow redials. It matches the replica's default
// FeedIdleTimeout; tests shorten it.
var feedIdleTimeout = 30 * time.Second

// dialFollow subscribes to cfg.view, resuming after cursor from when
// resume is set. snapshot asks for snapshot fallback should that cursor
// have been evicted; it never requests a bootstrap snapshot on a tail.
func dialFollow(cfg followConfig, resume bool, from uint64, snapshot bool) (*warehouse.MultiFeedClient, error) {
	req := warehouse.MultiFeedRequest{
		Views: []string{cfg.view}, Snapshot: snapshot && resume, Policy: cfg.policy,
		IOTimeout: feedIdleTimeout, ReadTimeout: feedIdleTimeout,
	}
	if resume {
		req.Froms = map[string]uint64{cfg.view: from}
	}
	return warehouse.DialMultiFeed(cfg.addr, req)
}

// followFeed tails a server-maintained view's changefeed, printing one
// line per delta event. A broken or silent stream (server restart,
// network fault, hung peer) is redialed with the last consumed cursor,
// so no events are missed as long as they remain in the server's replay
// ring; when the cursor has been evicted, the redial falls back to a
// full-membership snapshot (docs/CHANGEFEED.md) and tails from there.
func followFeed(out io.Writer, cfg followConfig) error {
	var resume bool
	var from uint64
	if cfg.from >= 0 {
		resume, from = true, uint64(cfg.from)
	}
	if cfg.stateFile != "" {
		st, ok, err := loadCursorState(cfg.stateFile)
		if err != nil {
			return fmt.Errorf("state file: %w", err)
		}
		if ok {
			if st.View != cfg.view {
				return fmt.Errorf("state file %s tracks view %q, not %q (use a separate file per view)",
					cfg.stateFile, st.View, cfg.view)
			}
			resume, from = true, st.Cursor
			fmt.Fprintf(out, "resuming %s after cursor %d from %s\n", cfg.view, st.Cursor, cfg.stateFile)
		}
	}
	fc, err := dialFollow(cfg, resume, from, cfg.snapshot)
	if err != nil {
		if errors.Is(err, feed.ErrCursorExpired) {
			return fmt.Errorf("%w (rerun with -snapshot to recover from a full snapshot)", err)
		}
		return err
	}

	// cur is the live client; the deadline timer and reconnects swap it
	// under mu so the timer always closes the current connection.
	var mu sync.Mutex
	cur := fc
	setCur := func(c *warehouse.MultiFeedClient) {
		mu.Lock()
		cur = c
		mu.Unlock()
	}
	closeCur := func() {
		mu.Lock()
		cur.Close()
		mu.Unlock()
	}
	defer closeCur()

	var deadline time.Time
	if cfg.dur > 0 {
		deadline = time.Now().Add(cfg.dur)
		// Closing the client unblocks a pending Next when the watch
		// window ends.
		timer := time.AfterFunc(cfg.dur, closeCur)
		defer timer.Stop()
	}
	expired := func() bool { return !deadline.IsZero() && !time.Now().Before(deadline) }

	hello := fc.Views[0]
	fmt.Fprintf(out, "following %s at cursor %d (oldest retained %d)\n", hello.View, hello.Cursor, hello.Oldest)
	lastCursor := hello.Cursor
	if resume {
		lastCursor = from
	}
	if hello.Snapshot != nil {
		fmt.Fprintf(out, "snapshot@%d value(%s) = %v\n", hello.Snapshot.Cursor, hello.View, hello.Snapshot.Members)
		lastCursor = hello.Snapshot.Cursor
	}
	// persist acknowledges lastCursor in the state file; a write failure
	// is reported but does not end the follow (the stream is still good).
	persist := func() {
		if cfg.stateFile == "" {
			return
		}
		if err := saveCursorState(cfg.stateFile, cfg.view, lastCursor); err != nil {
			fmt.Fprintf(out, "state file: %v\n", err)
		}
	}
	persist()

	n := 0
	for cfg.maxEvents == 0 || n < cfg.maxEvents {
		fr, err := cur.Next()
		if err != nil {
			if expired() {
				break // our own deadline closed the stream
			}
			// The stream broke or went silent (err may be io.EOF on a
			// clean server shutdown): redial with the last consumed cursor.
			nc, newLast, rerr := redialFeed(out, cfg, lastCursor, deadline)
			if nc == nil {
				if expired() {
					break
				}
				return rerr
			}
			lastCursor = newLast
			persist()
			setCur(nc)
			if expired() {
				// The deadline fired between the timer's close of the old
				// client and the swap; close the new one and stop.
				break
			}
			continue
		}
		ev := fr.Event
		if ev == nil {
			continue // progress heartbeat
		}
		fmt.Fprintf(out, "cursor=%d seq=%d %s(%s) +%v -%v\n",
			ev.Cursor, ev.Seq, ev.Kind, ev.N1, ev.Insert, ev.Delete)
		lastCursor = ev.Cursor
		persist()
		n++
	}
	fmt.Fprintf(out, "\nfollowed %d events on %s\n", n, cfg.view)
	return nil
}

// redialFeed re-establishes a broken follow, resuming after lastCursor,
// retrying until the deadline. When the cursor has been evicted from the
// server's replay ring it falls back to a snapshot subscription. It
// returns the new client and the cursor to resume from next time (the
// snapshot position, when one was taken).
func redialFeed(out io.Writer, cfg followConfig, lastCursor uint64, deadline time.Time) (*warehouse.MultiFeedClient, uint64, error) {
	var lastErr error
	for attempt := 0; deadline.IsZero() || time.Now().Before(deadline); attempt++ {
		if attempt > 0 {
			time.Sleep(50 * time.Millisecond)
		}
		fc, err := dialFollow(cfg, true, lastCursor, false)
		if errors.Is(err, feed.ErrCursorExpired) {
			// Events since lastCursor are gone; recover via snapshot.
			fc, err = dialFollow(cfg, true, lastCursor, true)
		}
		if err != nil {
			lastErr = err
			continue
		}
		hello := fc.Views[0]
		fmt.Fprintf(out, "reconnected to %s at cursor %d (resuming after %d)\n", cfg.view, hello.Cursor, lastCursor)
		if hello.Snapshot != nil {
			fmt.Fprintf(out, "snapshot@%d value(%s) = %v\n", hello.Snapshot.Cursor, cfg.view, hello.Snapshot.Members)
			lastCursor = hello.Snapshot.Cursor
		}
		return fc, lastCursor, nil
	}
	if lastErr == nil {
		lastErr = errors.New("follow deadline elapsed during reconnect")
	}
	return nil, lastCursor, fmt.Errorf("reconnecting to %s: %w", cfg.view, lastErr)
}
