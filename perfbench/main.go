// Command perfbench is the repository's end-to-end benchmark: the whole
// write → visible → read path of the maintained-view system, on three
// workloads that stress different layers.
//
//	perfbench --workload fig5_ingest|sql_oltp|serve_bigview --seed N --seconds S --trace 0|1
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// records its own spans around each call into a layer and reports the
// per-layer metrics instead. Either way it checks that the program's
// outputs are correct, prints every metric with its unit and sample
// count, and ends with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The program under test is driven only through its public functions
// and interfaces. Its obs counters and spans are only read; the traced
// run gives the program's span ring room for the whole phase.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// config is one run's settings.
type config struct {
	seed    int64
	seconds float64
	traced  bool
	outDir  string
}

// metricName is one metric of the result line.
type metricName struct{ name, unit string }

// e2eMetrics are the end-to-end metrics of an untraced run; every
// workload measures each of them.
var e2eMetrics = []metricName{
	{"setup_s", "s"}, {"txns_per_s", "1/s"},
	{"ack_p50_ms", "ms"}, {"visible_p50_ms", "ms"}, {"read_p50_ms", "ms"},
	{"live_heap_mb", "MB"},
}

// layerMetrics are the per-layer metrics of a traced run, named by the
// repository's packages.
var layerMetrics = []metricName{
	{"sqlparser.load_s", "s"}, {"sqlparser.txn_from_sql_p50_us", "us"},
	{"core.build_s", "s"}, {"core.view_sets_costed", "count"}, {"core.est_io_per_txn", "count"},
	{"ic.exec_clean_p50_us", "us"}, {"ic.exec_reject_p50_us", "us"}, {"ic.rejected", "count"},
	{"maintain.window_p50_ms", "ms"}, {"maintain.propagate_ms_per_ktxn", "ms"},
	{"maintain.apply_views_ms_per_ktxn", "ms"}, {"maintain.apply_base_ms_per_ktxn", "ms"},
	{"maintain.mqo_hit_ratio", "ratio"}, {"maintain.probe_hit_ratio", "ratio"},
	{"delta.coalesce_survival", "ratio"},
	{"storage.page_io_per_txn", "count"}, {"storage.query_io_per_txn", "count"},
	{"storage.view_io_per_txn", "count"},
	{"wal.sync_p50_us", "us"}, {"wal.sync_p99_us", "us"}, {"wal.syncs_per_txn", "count"},
	{"wal.bytes_per_txn", "B"}, {"wal.recover_s", "s"},
	{"server.hook_p50_us", "us"}, {"server.publish_p50_ms", "ms"}, {"server.publish_p99_ms", "ms"},
	{"server.queue_depth_max", "count"}, {"server.sse_deliver_p50_ms", "ms"},
	{"server.txn_handler_p50_us", "us"}, {"server.read_handler_p50_us", "us"},
	{"server.dirty_events", "count"},
	{"runtime.allocs_per_txn", "count"}, {"runtime.bytes_per_txn", "B"},
	{"runtime.gc_per_10k_txns", "count"}, {"runtime.gc_pause_p99_us", "us"},
	{"loadgen.ack_p99_ms", "ms"}, {"loadgen.visible_p99_ms", "ms"}, {"loadgen.read_p99_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"}, {"loadgen.slo_tps", "1/s"}, {"loadgen.error_rate", "ratio"},
	{"loadgen.trace_overhead_pct", "%"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config, *tracer) (*report, error){
	"fig5_ingest":   runFig5,
	"sql_oltp":      runOLTP,
	"serve_bigview": runBigView,
}

func main() {
	name := flag.String("workload", "", "fig5_ingest, sql_oltp or serve_bigview")
	seed := flag.Int64("seed", 1, "input generator seed")
	seconds := flag.Float64("seconds", 20, "length of the measured phase")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	outDir := flag.String("out", ".bench_build", "directory the traced run writes its spans to")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n",
			*name, *seconds, *traceFlag)
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, traced: *traceFlag == 1, outDir: *outDir}
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	t0 := time.Now()
	rep, err := run(cfg, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	rep.workload = *name
	if err := tr.dump(cfg.outDir, *name, cfg.seed); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		os.Exit(1)
	}
	printReport(rep, cfg, time.Since(t0))
}

// printReport prints every metric and check, then the result line.
func printReport(rep *report, cfg config, wall time.Duration) {
	fmt.Printf("workload %s seed %d seconds %g trace %v (wall %.1fs)\n",
		rep.workload, cfg.seed, cfg.seconds, cfg.traced, wall.Seconds())
	rep.addLayer("loadgen.error_rate", "ratio", float64(rep.failed)/float64(max(rep.attempted, 1)), 0)
	show := func(kind string, ms []metric) {
		for _, m := range ms {
			switch {
			case len(m.Rounds) > 0 && m.N > 0:
				fmt.Printf("  %-6s %-34s %14.4f %-6s (n=%d; best of rounds %.4g)\n",
					kind, m.Name, m.Value, m.Unit, m.N, m.Rounds)
			case len(m.Rounds) > 0:
				fmt.Printf("  %-6s %-34s %14.4f %-6s (best of rounds %.4g)\n",
					kind, m.Name, m.Value, m.Unit, m.Rounds)
			case m.N > 0:
				fmt.Printf("  %-6s %-34s %14.4f %-6s (n=%d)\n", kind, m.Name, m.Value, m.Unit, m.N)
			default:
				fmt.Printf("  %-6s %-34s %14.4f %s\n", kind, m.Name, m.Value, m.Unit)
			}
		}
	}
	show("e2e", rep.e2e)
	show("layer", rep.layer)
	for _, c := range rep.checks {
		status := "ok"
		if !c.ok {
			status = "FAIL"
		}
		fmt.Printf("  check  %-34s %s  %s\n", c.name, status, c.detail)
	}
	for _, n := range rep.failNotes {
		fmt.Printf("  failed op: %s\n", n)
	}
	fmt.Printf("  ops    attempted %d failed %d\n", rep.attempted, rep.failed)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	chosen, names := rep.e2e, e2eMetrics
	if cfg.traced {
		chosen, names = rep.layer, layerMetrics
	}
	byName := map[string]metric{}
	for _, m := range chosen {
		byName[m.Name] = m
	}
	// Every listed metric is printed on every workload; a layer the
	// workload does not exercise did no work and reads 0.
	metrics := map[string]value{}
	for _, n := range names {
		m, ok := byName[n.name]
		if !ok {
			m.Unit = n.unit
		}
		metrics[n.name] = value{m.Value, m.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct(), max(rep.attempted, 1), rep.failed, metrics})
	fmt.Println(string(line))
}
