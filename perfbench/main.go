// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time, checks every answer against a reference
// computed by saturation-based answering (Theorem 3.1), and prints the
// workload's end-to-end metrics (untraced run) or per-layer metrics
// (traced run) as the last line of standard output:
//
//	perfbench --workload plan-heavy --seed 1 --seconds 20 --trace 0
//
// The line before it is a JSON report naming the inputs (seed, triple
// counts, query × strategy lists), the platform (Go version, GOMAXPROCS,
// CPUs), why the workload exists, and the sample counts behind every
// percentile. The process exits non-zero when any operation failed or
// returned a wrong answer.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// metricSpec names a reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the untraced run's metrics, reported by every workload.
var endToEnd = []metricSpec{
	{"throughput_qps", "1/s"},
	{"latency_geomean_ms", "ms"},
	{"latency_slowest_ms", "ms"},
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"bytes_per_triple", "B"},
}

// perLayer are the traced run's metrics. A workload that does not reach
// a layer reports 0 for it; the report line lists which layers each
// workload observes.
var perLayer = []metricSpec{
	{"sparql.parse_us", "us"},
	{"sparql.encode_us", "us"},
	{"core.optimize_ms", "ms"},
	{"core.optimize_share", "ratio"},
	{"core.covers_explored", "count"},
	{"core.covers_per_ms", "1/ms"},
	{"core.total_cqs", "count"},
	{"reformulate.ms", "ms"},
	{"reformulate.cqs_per_ms", "1/ms"},
	{"engine.eval_ms", "ms"},
	{"engine.eval_share", "ratio"},
	{"engine.tuples_scanned", "count"},
	{"engine.rows_joined", "count"},
	{"engine.rows_materialized", "count"},
	{"engine.rows_deduped", "count"},
	{"engine.union_arms", "count"},
	{"engine.work", "count"},
	{"engine.answers_per_ktuple", "ratio"},
	{"engine.dedup_waste", "ratio"},
	{"dict.decode_ms", "ms"},
	{"dict.encode_s", "s"},
	{"storage.load_s", "s"},
	{"stats.collect_s", "s"},
	{"cost.calibrate_s", "s"},
	{"saturate.s", "s"},
	{"saturate.implicit_triples", "count"},
	{"server.answer_ms", "ms"},
	{"server.overhead_ms", "ms"},
	{"server.bytes_per_row", "B"},
	{"server.update_p50_ms", "ms"},
	{"server.update_p90_ms", "ms"},
	{"server.update_late_p90_ms", "ms"},
	{"server.update_late_max_ms", "ms"},
	{"plancache.hit_rate", "ratio"},
	{"plancache.invalidations", "count"},
	{"storage.compact_ms", "ms"},
	{"trace.coverage", "ratio"},
	{"trace.overhead", "ratio"},
}

// config is one run's command line.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// lubmSeed and dblpSeed derive the generators' seeds from the run seed;
// seed 1 gives the repository's default inputs (LUBM 42, DBLP 7).
func (c config) lubmSeed() int64 { return 41 + c.seed }
func (c config) dblpSeed() int64 { return 6 + c.seed }

// runResult is what a workload hands back: its operation log, its
// metrics by name and a free-form report.
type runResult struct {
	opLog
	metrics map[string]float64
	report  map[string]any
}

func newRunResult() *runResult {
	return &runResult{metrics: map[string]float64{}, report: map[string]any{}}
}

// reportPooled records the pooled latency percentiles of a run and the
// sample counts behind them. They are the tail a user sees, but on a
// shared host they move more from run to run than the metrics do.
func reportPooled(res *runResult, lat opLatencies) {
	all := lat.pooled()
	res.report["latency_samples"] = len(all)
	res.report["latency_p50_ms"] = median(all)
	res.report["latency_p99_ms"] = percentile(all, 99)
	res.report["samples_beyond_p99"] = beyond(len(all), 99)
}

// workload is one named traffic mix.
type workload struct {
	name string
	why  string
	run  func(cfg config, res *runResult) error
}

var workloads = []workload{
	{
		name: "plan-heavy",
		why:  "Cover search is about 93% of each op (ECov/GCov on LUBM and DBLP tiny), so core/reformulate/stats changes show here and engine changes barely move it.",
		run:  runPlanHeavy,
	},
	{
		name: "eval-heavy",
		why:  "Evaluation is about 98% of each op (scq/gcov/saturation on LUBM small), so engine and dict changes show here and optimizer-only changes should not move it.",
		run:  runEvalHeavy,
	},
	{
		name: "serve-rw",
		why:  "An HTTP server answers selective queries while an open-loop client writes and compacts, so server, plan-cache, delta and compaction changes show here.",
		run:  runServeRW,
	},
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finalLine is the last line of standard output.
type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: plan-heavy, eval-heavy or serve-rw")
	seed := flag.Int64("seed", 1, "input seed (1 reproduces the default LUBM 42 / DBLP 7 datasets)")
	seconds := flag.Int("seconds", 20, "measured time per run, in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {plan-heavy|eval-heavy|serve-rw}, --seconds >= 1 and --trace {0|1}\n")
		return 2
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traced == 1}

	res := newRunResult()
	if err := w.run(cfg, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}

	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	line := finalLine{
		Correct:   res.tally.Failed() == 0,
		Attempted: res.tally.Attempted,
		Failed:    res.tally.Failed(),
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	for _, m := range specs {
		v, ok := res.metrics[m.name]
		if !ok && !cfg.trace {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not report %s\n", w.name, m.name)
			return 1
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // nothing was measured, e.g. no operation succeeded
		}
		line.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}

	res.report["workload"] = w.name
	res.report["why"] = w.why
	res.report["seed"] = cfg.seed
	res.report["seconds"] = cfg.seconds.Seconds()
	res.report["trace"] = cfg.trace
	res.report["go_version"] = runtime.Version()
	res.report["gomaxprocs"] = runtime.GOMAXPROCS(0)
	res.report["nproc"] = runtime.NumCPU()
	res.report["tally"] = res.tally
	res.report["error_rate"] = res.tally.ErrorRate()
	if len(res.reasons) > 0 {
		res.report["failures"] = res.reasons
	}
	if err := printJSON(map[string]any{"report": res.report}); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := printJSON(line); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if !line.Correct {
		return 1
	}
	return 0
}

func printJSON(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return errors.New("encoding result: " + err.Error())
	}
	_, err = fmt.Fprintf(os.Stdout, "%s\n", data)
	return err
}
