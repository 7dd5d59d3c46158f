// Command perfbench is the repository benchmark: it drives the certified
// Theorem 2 build (planardfs.BuildDFSTreeGuarded: guard, supervised
// dfs.Build, DFS certification) and the planard job server (serve.New
// behind a loopback HTTP server) through their public entry points, checks
// every output, and prints the end-to-end metrics, or with --trace 1 the
// per-layer metrics of a traced run. README.md documents every workload and
// metric.
//
// Run it from the repository root through the wrapper, which builds the
// binary into .bench_build/:
//
//	bash perfbench/run.sh --workload stacked-build --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is nonzero when
// any output was wrong or the run could not be set up.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metricDef is one metric of the catalog: its unit, which way is better,
// and whether it belongs to the traced (per-layer) run.
type metricDef struct {
	name     string
	unit     string
	better   string // "lower" or "higher"
	perLayer bool
}

// catalog lists every metric of BENCHMARK.json in report order. Every
// workload reports every end-to-end metric, and every traced run every
// per-layer metric.
var catalog = []metricDef{
	{"setup_s", "s", "lower", false},
	{"build_p50_s", "s", "lower", false},
	{"build_exponent", "1", "lower", false},
	{"build_alloc_mb", "MB", "lower", false},
	{"charged_rounds", "rounds", "lower", false},
	{"reject_p50_ms", "ms", "lower", false},

	{"planar.restrict.wall_s", "s", "lower", true},
	{"planar.restrict.alloc_mb", "MB", "lower", true},
	{"planar.restrict.calls", "count", "lower", true},
	{"weights.config.wall_s", "s", "lower", true},
	{"weights.config.alloc_mb", "MB", "lower", true},
	{"dfs.join.wall_s", "s", "lower", true},
	{"dfs.join.alloc_mb", "MB", "lower", true},
	{"dfs.join.subphases", "count", "lower", true},
	{"separator.find.wall_s", "s", "lower", true},
	{"separator.find.alloc_mb", "MB", "lower", true},
	{"separator.find.calls", "count", "lower", true},
	{"guard.wall_s", "s", "lower", true},
	{"guard.alloc_mb", "MB", "lower", true},
	{"guard.rounds", "rounds", "lower", true},
	{"guard.messages", "count", "lower", true},
	{"cert.wall_s", "s", "lower", true},
	{"cert.rounds", "rounds", "lower", true},
	{"runtime.gc_cycles", "count", "lower", true},
	{"serve.submit_ms", "ms", "lower", true},
	{"serve.queue_wait_us", "us", "lower", true},
	{"serve.build_s", "s", "lower", true},
	{"serve.cache.hit_ratio", "ratio", "higher", true},
	{"spanning.bfs.wall_s", "s", "lower", true},
	{"dfs.components.wall_s", "s", "lower", true},
	{"dfs.verify.wall_s", "s", "lower", true},
	{"dfs.build.self_s", "s", "lower", true},
	{"dfs.phases", "count", "lower", true},
	{"chaos.attempts", "count", "lower", true},
	{"serve.query_miss", "count", "lower", true},
	{"trace.overhead_ratio", "ratio", "lower", true},
}

// extraMetric is a metric outside the catalog, printed in the report.
type extraMetric struct {
	def metricDef
	measured
}

// measured is one reported value with the number of samples behind it.
type measured struct {
	value float64
	n     int
}

// result is what a workload run produces.
type result struct {
	attempted int
	failed    int
	// failures describes the first wrong outputs, for the report.
	failures []string
	// extra are metrics printed in the report but not in the JSON summary:
	// those only one workload can measure.
	extra []extraMetric
	// notes are extra report lines (breakdowns of a metric).
	notes   []string
	metrics map[string]measured
	// params records the workload parameters for the stamp.
	params map[string]any
	// spans are the traced run's spans, written out at exit.
	spans []span
}

func newResult() *result {
	return &result{metrics: map[string]measured{}, params: map[string]any{}}
}

// set records a metric value with its sample count.
func (r *result) set(name string, value float64, n int) {
	r.metrics[name] = measured{value: value, n: n}
}

// setRejects sets reject_p50_ms, the median over all rejections, and
// notes each corruption class's median.
func (r *result) setRejects(byClass [numCorruptions][]float64) {
	var all []float64
	for c, xs := range byClass {
		all = append(all, xs...)
		r.notes = append(r.notes, fmt.Sprintf("reject_p50_ms[%s] %.6g ms n=%d", corruption(c), median(xs), len(xs)))
	}
	r.set("reject_p50_ms", median(all), len(all))
}

// check counts one checked operation and records a failure when err is
// non-nil.
func (r *result) check(err error) {
	r.attempted++
	if err == nil {
		return
	}
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, err.Error())
	}
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string
}

// workloads maps each workload name to its runner at benchmark scale.
var workloads = map[string]func(options) (*result, error){
	"stacked-build": func(o options) (*result, error) { return runBuild(o, stackedBuild) },
	"grid-build":    func(o options) (*result, error) { return runBuild(o, gridBuild) },
	"serve-mixed":   func(o options) (*result, error) { return runServe(o, serveMixed) },
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed generates the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 25, "length of the timed phase in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced run and reports the per-layer metrics")
	fs.StringVar(&o.spans, "spans", "", "file the traced run writes its spans to (default .bench_build/spans-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	runner, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (know %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	if !(o.seconds > 0) {
		return fmt.Errorf("--seconds must be positive, got %v", o.seconds)
	}
	o.trace = traceFlag == 1
	if o.trace && o.spans == "" {
		o.spans = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", o.workload, o.seed))
	}

	res, err := runner(o)
	if err != nil {
		return err
	}
	st := stamp(o, res)
	if o.trace {
		if err := writeSpans(o.spans, st, res.spans); err != nil {
			return err
		}
	}
	if err := report(stdout, o, st, res); err != nil {
		return err
	}
	if res.failed > 0 {
		return fmt.Errorf("%d of %d checked operations gave wrong output", res.failed, res.attempted)
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// stamp records where and how a result was measured.
func stamp(o options, res *result) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"commit":     commit,
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"params":     res.params,
	}
}

// report prints the human-readable metric lines followed by the one-line
// JSON summary, which must be the last line of standard output.
func report(w io.Writer, o options, st map[string]any, res *result) error {
	stampJSON, err := json.Marshal(st)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# stamp %s\n", stampJSON)
	errRate := 0.0
	if res.attempted > 0 {
		errRate = float64(res.failed) / float64(res.attempted)
	}
	printMetric := func(d metricDef, m measured) {
		fmt.Fprintf(w, "%-26s %14.6g %-8s %-7s n=%d\n", d.name, m.value, d.unit, d.better, m.n)
	}
	printMetric(metricDef{name: "error_rate", unit: "ratio", better: "lower"}, measured{errRate, res.attempted})
	out := map[string]any{}
	for _, d := range catalog {
		if d.perLayer != o.trace {
			continue
		}
		m, ok := res.metrics[d.name]
		if !ok {
			return fmt.Errorf("workload %s did not report %s", o.workload, d.name)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("workload %s: %s is %v", o.workload, d.name, m.value)
		}
		printMetric(d, m)
		out[d.name] = map[string]any{"value": m.value, "unit": d.unit}
	}
	for _, x := range res.extra {
		printMetric(x.def, x.measured)
	}
	for _, n := range res.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, f := range res.failures {
		fmt.Fprintf(w, "# wrong output: %s\n", f)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// writeSpans writes the traced run's spans, stamped, as one JSON document.
func writeSpans(path string, st map[string]any, spans []span) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	enc := json.NewEncoder(f)
	return enc.Encode(map[string]any{"stamp": st, "spans": spans})
}
