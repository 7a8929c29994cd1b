// Command perfbench is protoclust's end-to-end and per-layer benchmark.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload golden|tiled-budget|sweep-grid --seed N --seconds S --trace 0|1 [-out DIR]
//
// One process runs one workload closed-loop: a pass is one batch of
// analyses, started only after the previous pass finished. Inputs are
// generated from --seed; every output is verified. The run measures
// untraced passes for --seconds (at least minPasses of them) and prints
// the end-to-end metrics; with --trace 1 it then makes tracedPasses
// traced passes, prints the per-layer metrics and writes the span tree
// to DIR/spans-<workload>-seed<N>.json. Human-readable lines come first;
// the last line of standard output is the JSON result.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

func main() {
	code, err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// run parses the flags and runs the benchmark; it returns the exit
// code and the error behind a non-zero one.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: golden, tiled-budget or sweep-grid")
		seed    = fs.Int64("seed", 1, "input generator seed")
		seconds = fs.Float64("seconds", 10, "minimum untraced measurement time, in seconds")
		trace   = fs.Int("trace", 0, "1 also runs traced passes and reports per-layer metrics")
		out     = fs.String("out", ".bench_build", "directory for the span file")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return 2, errors.New("usage: perfbench --workload W --seed N --seconds S --trace 0|1 [-out DIR]")
	}
	cfg := config{
		root:     ".",
		out:      *out,
		workload: *name,
		seed:     *seed,
		budget:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		sizes:    defaultSizes(),
	}
	pr := &printer{w: stdout}
	res, err := bench(ctx, cfg, pr)
	if err != nil {
		return 1, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	pr.printf("%s\n", line)
	if pr.err != nil {
		return 1, pr.err
	}
	return 0, nil
}

// config is one benchmark run.
type config struct {
	root     string // checkout root holding testdata/golden
	out      string // directory for the span file
	workload string
	seed     int64
	budget   time.Duration // measurement time per mode
	trace    bool
	sizes    sizes
}

// minPasses bounds the untraced pass count from below, so that every
// median rests on at least this many samples whatever the time budget.
// tracedPasses is the number of traced passes; per-layer metrics have
// no bound, and a traced pass costs up to twice an untraced one.
const (
	minPasses    = 2
	tracedPasses = 2
)

// setupRuns, setupTime and setupMax bound how often set-up is repeated
// for its median: at least setupRuns times, then until setupTime has
// passed, at most setupMax times.
const (
	setupRuns = 3
	setupTime = time.Second
	setupMax  = 50
)

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printer funnels every write to standard output through one error
// slot; the first write failure wins and fails the run.
type printer struct {
	w   io.Writer
	err error
}

func (p *printer) printf(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}

// reporter prints metrics as "name value unit (note)" lines and keeps
// the ones that belong in the JSON result.
type reporter struct {
	*printer
	metrics map[string]metricValue
}

func (r *reporter) emit(name string, v float64, unit, note string) {
	r.metrics[name] = metricValue{Value: v, Unit: unit}
	r.print(name, v, unit, note)
}

func (r *reporter) print(name string, v float64, unit, note string) {
	if note != "" {
		note = "  (" + note + ")"
	}
	r.printf("%-28s %14.6g %-6s%s\n", name, v, unit, note)
}

func bench(ctx context.Context, cfg config, pr *printer) (*result, error) {
	prepare, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	h := readHost(cfg.root)
	pr.printf("# perfbench workload=%s seed=%d seconds=%g trace=%t\n", cfg.workload, cfg.seed, cfg.budget.Seconds(), cfg.trace)
	pr.printf("# host %s\n", h)

	// Set-up runs several times; the last set-up's pass is measured.
	var (
		p      pass
		setups []float64
		start  = time.Now()
	)
	for len(setups) < setupRuns || (time.Since(start) < setupTime && len(setups) < setupMax) {
		t0 := time.Now()
		var err error
		if p, err = prepare(ctx, cfg.root, cfg.seed, cfg.sizes); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	res := &result{Metrics: map[string]metricValue{}}
	rep := &reporter{printer: pr, metrics: map[string]metricValue{}}
	var last *passStats
	record := func(ps *passStats) {
		res.Attempted += ps.attempted
		res.Failed += ps.failed
		for _, f := range ps.failures {
			pr.printf("# FAIL %s\n", f)
		}
		last = ps
	}

	// Untraced passes give the end-to-end metrics.
	var (
		walls, allocs, peaks, calib []float64
		opTimes                     = map[string][]float64{}
	)
	for start := time.Now(); len(walls) < minPasses || time.Since(start) < cfg.budget; {
		ps := newPassStats()
		resetPeakRSS()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		p(ctx, nil, ps)
		walls = append(walls, time.Since(t0).Seconds())
		peaks = append(peaks, peakRSS())
		runtime.ReadMemStats(&after)
		allocs = append(allocs, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
		calib = append(calib, ps.calib...)
		for name, d := range ps.times {
			opTimes[name] = append(opTimes[name], d)
		}
		record(ps)
	}
	// A pass's time is the sum of its operations' median times: host
	// contention that slows some operations of one pass drops out.
	var wall float64
	for _, name := range sortedKeys(opTimes) {
		wall += median(opTimes[name])
	}
	// Times are reported at the reference host speed (calibrate.go).
	scale := calibRef / median(calib)
	npass := fmt.Sprintf("median of %d passes", len(walls))
	pr.printf("# pass walls (s):%s\n", fmtList(walls))
	rep.print("calibration_s", median(calib), "s", fmt.Sprintf("median of %d, reference %g s", len(calib), calibRef))
	rep.print("wall_measured_s", wall, "s", "wall_s before scaling")
	rep.print("setup_measured_s", median(setups), "s", "setup_s before scaling")
	rep.emit("wall_s", wall*scale, "s", fmt.Sprintf("sum of %d operations' medians over %d passes, scaled", len(opTimes), len(walls)))
	rep.emit("setup_s", median(setups)*scale, "s", fmt.Sprintf("median of %d set-ups, scaled", len(setups)))
	rep.emit("peak_rss_mb", median(peaks), "MiB", "resident high-water mark per pass, "+npass)
	rep.emit("alloc_mb", median(allocs), "MiB", "heap allocated per pass, "+npass)
	rep.emit("fscore_mean", mean(last.fscore), "ratio", fmt.Sprintf("F1/4 over %d analyses", len(last.fscore)))
	rep.emit("coverage_mean", mean(last.coverage), "ratio", fmt.Sprintf("over %d analyses", len(last.coverage)))
	if len(last.recognition) > 0 {
		rep.print("recognition_accuracy_mean", mean(last.recognition), "ratio", fmt.Sprintf("over %d recognitions", len(last.recognition)))
	}
	for _, k := range sortedKeys(last.info) {
		rep.print(k, last.info[k], "count", "per pass")
	}

	if cfg.trace {
		// The per-layer metrics replace the end-to-end ones in the JSON
		// result; the end-to-end lines above stay for the reader.
		rep.metrics = map[string]metricValue{}
		if err := traced(ctx, cfg, h, p, median(walls), rep, record); err != nil {
			return nil, err
		}
	}
	rep.print("fail_rate", float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio",
		fmt.Sprintf("%d of %d operations failed", res.Failed, res.Attempted))
	res.Metrics = rep.metrics
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, pr.err
}

// traced measures traced passes, prints per-layer metrics and self
// times, and writes the spans.
func traced(ctx context.Context, cfg config, h host, p pass, untraced float64, rep *reporter, record func(*passStats)) error {
	t := newTracer()
	var (
		layers []map[string]float64
		walls  []float64
	)
	for len(walls) < tracedPasses {
		ps := newPassStats()
		run := len(walls)
		t.begin(run, "pass")
		p(ctx, t, ps)
		t.end()
		spans := t.runSpans(run)
		walls = append(walls, netDurs(spans, "pass"))
		layers = append(layers, layerMetrics(spans, t))
		record(ps)
	}
	rep.printf("# per-layer metrics: median of %d traced passes\n", len(walls))
	for _, lm := range layerCatalog {
		var vals []float64
		for _, l := range layers {
			if v, ok := l[lm.name]; ok {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			continue
		}
		if lm.universal {
			rep.emit(lm.name, median(vals), lm.unit, lm.note)
		} else {
			rep.print(lm.name, median(vals), lm.unit, lm.note)
		}
	}
	overhead := median(walls) - untraced
	rep.emit("trace.overhead_s", overhead, "s", "traced pass time without probes minus untraced wall_measured_s")

	selfs := selfTimes(t.spans)
	rep.printf("# self time per layer, mean per traced pass:\n")
	for _, s := range selfs {
		rep.printf("self %-24s %12.6f s  calls %d\n", s.Name, s.Self/float64(len(walls)), s.Calls/len(walls))
	}
	return writeSpans(cfg, h, t.spans, selfs, len(walls), overhead)
}

// layerMetric describes one per-layer metric. Universal metrics are
// measured on every workload and form the JSON result of a traced run;
// the others exist on one workload only and are printed.
type layerMetric struct {
	name, unit, note string
	universal        bool
}

var layerCatalog = []layerMetric{
	{"netmsg.dedup_s", "s", "", true},
	{"segment.run_s", "s", "", true},
	{"segment.segments", "count", "", true},
	{"dissim.pool_s", "s", "", true},
	{"dissim.pool_unique", "count", "", true},
	{"dissim.matrix_s", "s", "build call; lazy on the tiled backend", true},
	{"dissim.matrix_ns_per_pair", "ns", "build per pair; tiled: first full k-NN pass per pair", true},
	{"dissim.resident_mb", "MiB", "largest matrix held", true},
	{"dissim.knn_s", "s", "one KNNTable(kmax) per auto-configuration", true},
	{"dissim.knn_allocs", "count", "heap objects of those KNNTable calls", true},
	{"dissim.passes_est", "passes", "core.cluster_pool_s / dissim.knn_s", true},
	{"core.configure_s", "s", "", true},
	{"core.configure_self_s", "s", "configure minus its k-NN table", true},
	{"core.k", "count", "sum of selected k", true},
	{"core.from_knee_share", "ratio", "", true},
	{"dbscan.cluster_s", "s", "", true},
	{"dbscan.largest_share", "ratio", "mean before the guard", true},
	{"dbscan.optics_s", "s", "", false},
	{"dbscan.hdbscan_s", "s", "", false},
	{"core.cluster_pool_s", "s", "", true},
	{"core.guard_refine_s", "s", "cluster_pool minus configure and clusterer", true},
	{"core.reconfigured", "count", "60 % guard firings", true},
	{"semantics.deduce_s", "s", "", true},
	{"report.build_s", "s", "includes semantics", true},
	{"eval.evaluate_s", "s", "", true},
	{"format.learn_s", "s", "", false},
	{"format.recognize_s", "s", "", false},
	{"sweep.run_s", "s", "", false},
	{"sweep.replay_s", "s", "serial replay of the sweep's layer calls, without probes", false},
}

// layerMetrics derives one traced pass's per-layer metrics from its
// spans and counts. Layers the pass never called are absent.
func layerMetrics(spans []span, t *tracer) map[string]float64 {
	called := map[string]bool{}
	for _, s := range spans {
		called[s.Name] = true
	}
	out := map[string]float64{}
	timed := func(metric, layer string) float64 {
		d := sumDur(spans, layer)
		if called[layer] {
			out[metric] = d
		}
		return d
	}
	c := t.counts
	timed("netmsg.dedup_s", "netmsg.dedup")
	timed("segment.run_s", "segment.run")
	timed("dissim.pool_s", "dissim.pool")
	matrix := timed("dissim.matrix_s", "dissim.matrix")
	knn := timed("dissim.knn_s", "dissim.knn")
	configure := timed("core.configure_s", "core.configure")
	clus := timed("dbscan.cluster_s", "dbscan.cluster")
	clus += timed("dbscan.optics_s", "dbscan.optics")
	clus += timed("dbscan.hdbscan_s", "dbscan.hdbscan")
	pool := timed("core.cluster_pool_s", "core.cluster_pool")
	timed("semantics.deduce_s", "semantics.deduce")
	timed("report.build_s", "report.build")
	timed("eval.evaluate_s", "eval.evaluate")
	timed("format.learn_s", "format.learn")
	timed("format.recognize_s", "format.recognize")
	timed("sweep.run_s", "sweep.run")
	if called["sweep.replay"] {
		out["sweep.replay_s"] = netDurs(spans, "sweep.replay")
	}

	out["segment.segments"] = c["segment.segments"]
	out["dissim.pool_unique"] = c["dissim.pool_unique"]
	out["dissim.resident_mb"] = t.maxima["dissim.resident_bytes"] / (1 << 20)
	out["dissim.knn_allocs"] = c["dissim.knn_allocs"]
	out["core.k"] = c["core.k"]
	out["core.reconfigured"] = c["core.reconfigured"]
	out["core.configure_self_s"] = configure - knn
	out["core.guard_refine_s"] = pool - configure - clus
	// The tiled backend computes tiles inside its consumers, so its
	// build cost per pair is that of the first full k-NN pass.
	perPair := matrix
	if c["dissim.lazy_builds"] > 0 {
		perPair = knn
	}
	if c["dissim.pairs"] > 0 {
		out["dissim.matrix_ns_per_pair"] = perPair / c["dissim.pairs"] * 1e9
	}
	if knn > 0 {
		out["dissim.passes_est"] = pool / knn
	}
	if c["core.auto"] > 0 {
		out["core.from_knee_share"] = c["core.from_knee"] / c["core.auto"]
	}
	if c["dbscan.runs"] > 0 {
		out["dbscan.largest_share"] = c["dbscan.largest_share"] / c["dbscan.runs"]
	}
	return out
}

// writeSpans writes the run's spans, self times and host to the span
// file.
func writeSpans(cfg config, h host, spans []span, selfs []selfTime, passes int, overhead float64) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload  string     `json:"workload"`
		Seed      int64      `json:"seed"`
		Host      host       `json:"host"`
		Passes    int        `json:"passes"`
		Overhead  float64    `json:"tracing_overhead_s"`
		SelfTimes []selfTime `json:"self_times"`
		Spans     []span     `json:"spans"`
	}{cfg.workload, cfg.seed, h, passes, overhead, selfs, spans}
	raw, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func fmtList(xs []float64) string {
	var b strings.Builder
	for _, x := range xs {
		fmt.Fprintf(&b, " %.4g", x)
	}
	return b.String()
}

func workloadNames() []string { return sortedKeys(workloads) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
