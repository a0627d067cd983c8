// Command perfbench is geoserp's end-to-end benchmark. It drives the real
// serving chain — a monolith serpserver.Handler, a 3-shard × 2-replica
// router cluster, and a lock-step crawler campaign behind the admission
// gate — checks every output it times, and prints one JSON result line.
// See README.md for the workloads, the metrics, and the traced variant.
//
//	bash perfbench/run.sh --workload mono-local --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

	"geoserp/internal/engine"
	"geoserp/internal/simclock"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics of the untraced run (--trace 0): what a user
// of the system sees. Every workload reports each of them.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"throughput_qps", "req/s"},
	{"search_p50_ms", "ms"},
	{"search_p90_ms", "ms"},
	{"live_heap_mb", "MB"},
}

// perLayer are the metrics of the traced run (--trace 1). A layer the
// workload does not exercise reports 0.
var perLayer = []metricSpec{
	{"serpserver.handler_p50_us", "us"},
	{"serpserver.handler_p90_us", "us"},
	{"serpserver.self_p50_us", "us"},
	{"serpserver.page_bytes", "bytes"},
	{"serpserver.admission_wait_p50_us", "us"},
	{"serpserver.admission_wait_p90_us", "us"},
	{"serpserver.admitted", "count"},
	{"serpserver.shed", "count"},
	{"engine.parse_p50_us", "us"},
	{"engine.noise_p50_us", "us"},
	{"engine.history_p50_us", "us"},
	{"engine.assemble_p50_us", "us"},
	{"engine.retrieve_p50_us", "us"},
	{"engine.retrieve_p90_us", "us"},
	{"engine.rerank_p50_us", "us"},
	{"engine.rerank_p90_us", "us"},
	{"engine.ratelimited", "count"},
	{"webcorpus.places_near_us", "us"},
	{"webcorpus.places_near_cold_us", "us"},
	{"index.search_us", "us"},
	{"index.shard_search_us", "us"},
	{"index.merge_us", "us"},
	{"router.leg_p50_us", "us"},
	{"router.leg_p90_us", "us"},
	{"router.shard_p50_us", "us"},
	{"router.shard_p90_us", "us"},
	{"router.wire_p50_us", "us"},
	{"router.straggler_p50_us", "us"},
	{"router.merge_self_p50_us", "us"},
	{"router.reply_bytes", "bytes"},
	{"router.reply_decode_us", "us"},
	{"router.legs", "count"},
	{"router.failovers", "count"},
	{"router.hedges", "count"},
	{"router.partial", "count"},
	{"router.first_try_ratio", "ratio"},
	{"serp.render_us", "us"},
	{"serp.parse_us", "us"},
	{"browser.fetch_p50_us", "us"},
	{"browser.fetch_p90_us", "us"},
	{"browser.retries", "count"},
	{"crawler.sweep_p50_ms", "ms"},
	{"crawler.sweep_p90_ms", "ms"},
	{"crawler.straggler_p50_ms", "ms"},
	{"crawler.fetch_ok_ratio", "ratio"},
	{"analysis.ingest_sweep_p50_us", "us"},
	{"analysis.ingest_sweep_p90_us", "us"},
	{"analysis.analyze_s", "s"},
	{"analysis.dataset_s", "s"},
	{"analysis.figures_s", "s"},
	{"analysis.pairs_compared", "count"},
	{"storage.write_ms", "ms"},
	{"storage.read_ms", "ms"},
	{"process.mallocs_per_op", "count"},
	{"process.alloc_bytes_per_op", "bytes"},
	{"process.gc_cycles", "count"},
	{"process.gc_cpu_fraction", "ratio"},
	{"process.heap_growth_bytes_per_op", "bytes"},
	{"telemetry.trace_overhead_ratio", "ratio"},
	{"traced.e2e_p50_us", "us"},
	{"traced.requests", "count"},
	{"unattributed_p50_us", "us"},
	{"fail_ratio", "ratio"},
}

// options are the command-line arguments.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	spansDir string
}

// check is one correctness verdict.
type check struct {
	name   string
	ok     bool
	detail string
}

// result is one workload run.
type result struct {
	attempted, failed int
	checks            []check
	e2e, layers       map[string]float64
	// report holds lines printed before the JSON result: the workload's
	// own figures under the names the README uses, with sample counts.
	report []string
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layers: map[string]float64{}}
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name, ok, fmt.Sprintf(format, args...)})
}

func (r *result) note(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return r.failed == 0
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(options) (*result, error){
	"mono-local":   runMonoLocal,
	"cluster-news": runClusterNews,
	"campaign":     runCampaign,
}

// setupReps is how many times each run builds its rig; setup_s is the
// median.
const setupReps = 3

// wall is the benchmark's only clock.
var wall = simclock.Wall()

// benchEngineConfig is the default engine with the per-IP rate limit
// lifted out of reach (the check still runs on every request, and a 429
// counts as a failure).
func benchEngineConfig() engine.Config {
	cfg := engine.DefaultConfig()
	cfg.RateBurst = 1 << 30
	cfg.RatePerMinute = 1 << 30
	return cfg
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: mono-local, cluster-news, or campaign")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: draws the request stream")
	fs.IntVar(&o.seconds, "seconds", 25, "measurement window per run, in seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	fs.StringVar(&o.spansDir, "spans-dir", ".bench_build/trace", "where the traced run writes its spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	res, err := drive(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if err := emit(stdout, o, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.correct() {
		fmt.Fprintf(stderr, "perfbench: %s: correctness checks failed\n", o.workload)
		return 1
	}
	return 0
}

func workloadNames() []string {
	out := make([]string, 0, len(workloads))
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// emit prints the provenance header, the report, the checks, every metric
// by name and unit, and last the JSON result line.
func emit(w io.Writer, o options, r *result) error {
	specs, values := endToEnd, r.e2e
	if o.trace == 1 {
		specs, values = perLayer, r.layers
	}
	for name := range values {
		if !hasSpec(specs, name) {
			return fmt.Errorf("metric %q is not in the catalogue", name)
		}
	}
	fmt.Fprintln(w, provenance(o))
	fmt.Fprintf(w, "# operations attempted=%d failed=%d\n", r.attempted, r.failed)
	for _, line := range r.report {
		fmt.Fprintln(w, line)
	}
	for _, c := range r.checks {
		verdict := "ok"
		if !c.ok {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "check %-28s %-4s %s\n", c.name, verdict, c.detail)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]jsonMetric, len(specs))
	for _, s := range specs {
		v := values[s.name]
		fmt.Fprintf(w, "metric %-34s %14s %s\n", s.name, strconv.FormatFloat(v, 'g', 8, 64), s.unit)
		metrics[s.name] = jsonMetric{v, s.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

func hasSpec(specs []metricSpec, name string) bool {
	for _, s := range specs {
		if s.name == name {
			return true
		}
	}
	return false
}

// setupMedian runs build setupReps times, closing every rig but the last,
// and returns the last rig with the median set-up time in seconds at
// nominal host speed (each set-up timed between two host speed samples).
func setupMedian[R any](res *result, build func() (R, error), closeRig func(R)) (R, float64, error) {
	var rig R
	var times, raw []float64
	before := hostSpeed()
	for k := 0; k < setupReps; k++ {
		if k > 0 {
			closeRig(rig)
		}
		start := wall.Now()
		r, err := build()
		if err != nil {
			var zero R
			return zero, 0, err
		}
		d := wall.Now().Sub(start).Seconds()
		after := hostSpeed()
		times = append(times, d*(before+after)/2)
		raw = append(raw, d)
		before = after
		rig = r
	}
	res.note("report setup_s=%.4f s at nominal host speed: median of %d set-ups (raw median %.4f s)", median(times), setupReps, median(raw))
	return rig, median(times), nil
}

// noteSummary reports a window's figures at nominal host speed beside
// the raw ones, with their sample counts.
func noteSummary(res *result, s sliced, unit string) {
	res.note("report throughput_qps=%.1f %s at nominal host speed: median of %d slices (raw %.1f %s; host speed factor median %.3f)",
		s.rate, unit, s.slices, s.rawRate, unit, s.speed)
	res.note("report search_p50_ms=%.4f search_p90_ms=%.4f ms at nominal host speed (raw p50 %.4f, p90 %.4f; samples=%d, beyond p90=%d)",
		s.adjusted.p50, s.adjusted.p90, s.raw.p50, s.raw.p90, s.adjusted.n, s.adjusted.beyondP90)
}
