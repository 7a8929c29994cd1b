package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"time"

	"protoclust"
	"protoclust/internal/core"
	"protoclust/internal/dissim"
	"protoclust/internal/format"
	"protoclust/internal/golden"
	"protoclust/internal/netmsg"
	"protoclust/internal/protocols"
	"protoclust/internal/sweep"
)

// sizes scales the workloads; the self-test shrinks them.
type sizes struct {
	// goldenTraces and goldenFormats select the golden records a golden
	// pass reproduces.
	goldenTraces  []golden.Spec
	goldenFormats []golden.FormatSpec
	// tiledTraces and sweepTraces are the number of dns traces per
	// tiled-budget and sweep-grid pass, tiledMessages and sweepMessages
	// their length. One trace's cost and quality vary with its seed by
	// up to 2x; a pass over many traces averages that out. Sweep traces
	// are short so that a run holds many passes and each operation's
	// median rests on many samples.
	tiledTraces, sweepTraces     int
	tiledMessages, sweepMessages int
	// budget is tiled-budget's matrix memory budget; it must be below
	// the trace's condensed matrix so the tiled backend serves it.
	budget int64
}

func defaultSizes() sizes {
	return sizes{
		goldenTraces:  golden.DefaultTraces(),
		goldenFormats: golden.DefaultFormatTraces(),
		tiledTraces:   30,
		sweepTraces:   10,
		tiledMessages: 200,
		sweepMessages: 150,
		budget:        256 << 10,
	}
}

// passStats collects one pass's operation outcomes and quality scores.
type passStats struct {
	attempted, failed int
	failures          []string
	fscore, coverage  []float64
	recognition       []float64
	// times holds each operation's duration; names are unique within
	// a pass.
	times map[string]float64
	// info carries workload-specific figures printed with the result.
	info map[string]float64
	// calib holds the untraced pass's calibration times.
	calib []float64
}

func newPassStats() *passStats {
	return &passStats{times: map[string]float64{}, info: map[string]float64{}}
}

// run executes one operation as a span of t and records its duration;
// an untraced pass first times the calibration job.
func (ps *passStats) run(t *tracer, layer, name string, fn func() error) error {
	if t == nil {
		ps.calib = append(ps.calib, calibrate())
	}
	t0 := time.Now()
	err := t.do(layer, name, fn)
	ps.times[name] += time.Since(t0).Seconds()
	return err
}

// check records one operation; a non-empty violation list fails it.
func (ps *passStats) check(op string, violations ...string) {
	ps.attempted++
	if len(violations) > 0 {
		ps.failed++
		ps.failures = append(ps.failures, op+": "+strings.Join(violations, "; "))
	}
}

// fail records one operation that could not complete.
func (ps *passStats) fail(op string, err error) { ps.check(op, err.Error()) }

// pass runs one batch of a workload.
type pass func(ctx context.Context, t *tracer, ps *passStats)

// setup prepares a workload's inputs from the seed and returns its
// pass; BENCHMARK.json says why each workload was chosen.
type setup func(ctx context.Context, root string, seed int64, sz sizes) (pass, error)

var workloads = map[string]setup{
	"golden":       setupGolden,
	"tiled-budget": setupTiled,
	"sweep-grid":   setupSweep,
}

// setupGolden generates every golden trace and loads its record. The
// seed is unused: the golden records pin their own generator seeds.
func setupGolden(_ context.Context, root string, _ int64, sz sizes) (pass, error) {
	dir := filepath.Join(root, "testdata", "golden")
	type goldenCase struct {
		spec golden.Spec
		tr   *netmsg.Trace
		want *golden.Record
	}
	type formatCase struct {
		spec       golden.FormatSpec
		train, rec *netmsg.Trace
		want       *golden.FormatRecord
	}
	var cases []goldenCase
	for _, s := range sz.goldenTraces {
		tr, err := protocols.Generate(s.Protocol, s.Messages, s.Seed)
		if err != nil {
			return nil, err
		}
		want, err := golden.Load(golden.Path(dir, s))
		if err != nil {
			return nil, err
		}
		cases = append(cases, goldenCase{s, tr, want})
	}
	var fcases []formatCase
	for _, s := range sz.goldenFormats {
		train, err := protocols.Generate(s.Protocol, s.Messages, s.TrainSeed)
		if err != nil {
			return nil, err
		}
		rec, err := protocols.Generate(s.Protocol, s.Messages, s.RecognizeSeed)
		if err != nil {
			return nil, err
		}
		want, err := golden.LoadFormat(golden.FormatPath(dir, s))
		if err != nil {
			return nil, err
		}
		fcases = append(fcases, formatCase{s, train, rec, want})
	}
	p := core.DefaultParams()
	return func(ctx context.Context, t *tracer, ps *passStats) {
		tol := golden.DefaultTolerance()
		for _, c := range cases {
			name := c.spec.String()
			err := ps.run(t, "golden.analysis", name, func() error {
				a, err := analyse(ctx, t, name, c.tr, protoclust.SegmenterTruth, p)
				if err != nil {
					return err
				}
				q := evaluate(t, name, a)
				if _, err := buildReport(t, name, a); err != nil {
					return err
				}
				got := &golden.Record{
					Spec:           c.spec,
					Epsilon:        a.res.Config.Epsilon,
					K:              a.res.Config.K,
					MinSamples:     a.res.Config.MinSamples,
					FromKnee:       a.res.Config.FromKnee,
					UniqueSegments: a.res.Pool.Size(),
					Clusters:       len(a.res.Clusters),
					NoiseSegments:  len(a.res.Noise),
					Precision:      q.metrics.Precision,
					Recall:         q.metrics.Recall,
					FScore:         q.fscore,
					Coverage:       q.coverage,
				}
				ps.fscore = append(ps.fscore, q.fscore)
				ps.coverage = append(ps.coverage, q.coverage)
				ps.check(name, golden.Compare(c.want, got, tol)...)
				return nil
			})
			if err != nil {
				ps.fail(name, err)
			}
		}
		for _, c := range fcases {
			name := c.spec.String()
			err := ps.run(t, "golden.recognition", name, func() error {
				got, err := recognize(ctx, t, name, c.spec, c.train, c.rec, p)
				if err != nil {
					return err
				}
				ps.recognition = append(ps.recognition, got.TypeAccuracy)
				ps.check(name, golden.CompareFormat(c.want, got, tol)...)
				return nil
			})
			if err != nil {
				ps.fail(name, err)
			}
		}
	}, nil
}

// recognize clusters the training trace, learns its templates, clusters
// the recognition trace and classifies it, as golden.RunFormat does.
func recognize(ctx context.Context, t *tracer, name string, s golden.FormatSpec, trainTr, recTr *netmsg.Trace, p core.Params) (*golden.FormatRecord, error) {
	train, err := analyse(ctx, t, name+"/train", trainTr, protoclust.SegmenterTruth, p)
	if err != nil {
		return nil, err
	}
	var ts *format.TemplateSet
	if err := t.do("format.learn", name, func() (err error) {
		ts, err = format.Learn(train.res, train.dd)
		return err
	}); err != nil {
		return nil, fmt.Errorf("learn %s: %w", name, err)
	}
	target, err := analyse(ctx, t, name+"/recognize", recTr, protoclust.SegmenterTruth, p)
	if err != nil {
		return nil, err
	}
	var rec *format.Recognition
	if err := t.do("format.recognize", name, func() (err error) {
		rec, err = format.Recognize(target.res, target.dd, ts)
		return err
	}); err != nil {
		return nil, fmt.Errorf("recognize %s: %w", name, err)
	}
	out := &golden.FormatRecord{
		FormatSpec: s,
		Templates:  len(ts.Templates),
		Formats:    len(rec.Schema.Formats),
	}
	for _, a := range rec.Assignments {
		if a.Unknown() {
			out.Unknown++
		} else {
			out.Assigned++
		}
	}
	ev := rec.Evaluate()
	out.TypeAccuracy = ev.TypeAccuracy()
	out.ByteCoverage = ev.ByteCoverage()
	return out, nil
}

// dnsTraces generates the pass's dns traces. Trace i uses the i-th
// draw of a generator seeded with seed, so one seed always yields the
// same traces and different seeds share none by construction.
func dnsTraces(seed int64, count, messages int) ([]*netmsg.Trace, error) {
	r := rand.New(rand.NewSource(seed))
	out := make([]*netmsg.Trace, count)
	for i := range out {
		var err error
		if out[i], err = protocols.Generate("dns", messages, r.Int63()); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// setupTiled generates the seed's dns traces and computes each one's
// reference report with the matrix in condensed memory, the unbudgeted
// default.
func setupTiled(ctx context.Context, _ string, seed int64, sz sizes) (pass, error) {
	traces, err := dnsTraces(seed, sz.tiledTraces, sz.tiledMessages)
	if err != nil {
		return nil, err
	}
	want := make([][]byte, len(traces))
	for i, tr := range traces {
		ref, err := protoclust.AnalyzeContext(ctx, tr, protoclust.Options{
			Segmenter: protoclust.SegmenterNEMESYS,
			Params:    core.DefaultParams(),
		})
		if err != nil {
			return nil, fmt.Errorf("reference analysis: %w", err)
		}
		if b := ref.Result().Matrix.Backend(); b != dissim.BackendCondensed {
			return nil, fmt.Errorf("reference matrix backend is %s, want %s", b, dissim.BackendCondensed)
		}
		if want[i], err = json.Marshal(ref.Report(reportSamples)); err != nil {
			return nil, err
		}
	}
	p := core.DefaultParams()
	p.MemoryBudget = sz.budget
	return func(ctx context.Context, t *tracer, ps *passStats) {
		for i, tr := range traces {
			name := fmt.Sprintf("dns-%d-seed%d.%d", sz.tiledMessages, seed, i)
			err := ps.run(t, "tiled.analysis", name, func() error {
				a, err := analyse(ctx, t, name, tr, protoclust.SegmenterNEMESYS, p)
				if err != nil {
					return err
				}
				q := evaluate(t, name, a)
				got, err := buildReport(t, name, a)
				if err != nil {
					return err
				}
				ps.fscore = append(ps.fscore, q.fscore)
				ps.coverage = append(ps.coverage, q.coverage)
				var v []string
				if b := a.res.Matrix.Backend(); b != dissim.BackendTiled {
					v = append(v, fmt.Sprintf("matrix backend %s, want %s", b, dissim.BackendTiled))
				}
				if !bytes.Equal(got, want[i]) {
					v = append(v, "report differs from the unbudgeted condensed reference")
				}
				ps.check(name, v...)
				return nil
			})
			if err != nil {
				ps.fail(name, err)
			}
		}
	}, nil
}

// sweepGrid is sweep-grid's configuration grid: 2 segmenters × 3
// clusterers × 3 ε sources, two of which bypass auto-configuration.
func sweepGrid() (sweep.Grid, error) {
	g := sweep.Grid{
		Segmenters: []string{protoclust.SegmenterNEMESYS, protoclust.SegmenterTruth},
		Clusterers: []string{"dbscan", "optics", "hdbscan"},
	}
	for _, spec := range []string{"knee", "fixed:0.2", "fixed:0.3"} {
		e, err := sweep.ParseEps(spec)
		if err != nil {
			return g, err
		}
		g.EpsSources = append(g.EpsSources, e)
	}
	return g, nil
}

// configParams projects a grid point onto pipeline parameters, as the
// sweep harness does for each configuration.
func configParams(c sweep.Config) core.Params {
	p := core.DefaultParams()
	p.Clusterer = c.Clusterer
	p.FixedK = c.K
	switch c.Eps.Mode {
	case sweep.EpsQuantile:
		p.EpsQuantile = c.Eps.Quantile
	case sweep.EpsFixed:
		p.FixedEpsilon = c.Eps.Epsilon
	}
	return p
}

// setupSweep generates the seed's dns traces.
func setupSweep(_ context.Context, _ string, seed int64, sz sizes) (pass, error) {
	traces, err := dnsTraces(seed, sz.sweepTraces, sz.sweepMessages)
	if err != nil {
		return nil, err
	}
	grid, err := sweepGrid()
	if err != nil {
		return nil, err
	}
	opts := sweep.Options{Grid: grid, Ensemble: true}
	digests := make([]string, len(traces)) // each sweep's first report digest
	return func(ctx context.Context, t *tracer, ps *passStats) {
		for i, tr := range traces {
			name := fmt.Sprintf("dns-%d-seed%d.%d", sz.sweepMessages, seed, i)
			var rep *sweep.Report
			err := ps.run(t, "sweep.run", name, func() (err error) {
				rep, err = sweep.Run(ctx, tr, opts)
				return err
			})
			if err != nil {
				ps.fail(name, err)
				continue
			}
			// The report holds no wall-clock value, so its bytes are a
			// determinism witness.
			raw, err := json.Marshal(rep)
			if err != nil {
				ps.fail(name, err)
				continue
			}
			sum := sha256.Sum256(raw)
			d := hex.EncodeToString(sum[:])
			if digests[i] == "" {
				digests[i] = d
			}
			var batch []string
			if rep.Completed != rep.Total || rep.Failed != 0 {
				batch = append(batch, fmt.Sprintf("%d of %d configs completed, %d failed", rep.Completed, rep.Total, rep.Failed))
			}
			if rep.MatrixBuilds != len(grid.Segmenters) {
				batch = append(batch, fmt.Sprintf("%d matrix builds, want %d", rep.MatrixBuilds, len(grid.Segmenters)))
			}
			if d != digests[i] {
				batch = append(batch, "report differs from the first pass")
			}
			for _, c := range rep.Configs {
				var v []string
				if c.Status != sweep.StatusOK {
					v = append(v, c.Status+": "+c.Reason)
				} else {
					ps.fscore = append(ps.fscore, c.Scores.FScore)
					ps.coverage = append(ps.coverage, c.Scores.Coverage)
				}
				ps.check(name+" "+c.Config.Label(), append(v, batch...)...)
			}
			ps.info["sweep.matrix_builds"] += float64(rep.MatrixBuilds)
			ps.info["sweep.configs_completed"] += float64(rep.Completed)
			t.probeStep("sweep.replay", name, func() { replaySweep(ctx, t, name, tr, rep, ps) })
		}
	}, nil
}

// replaySweep re-runs the sweep's composition serially through the
// layers' public calls — one segmentation and matrix per segmenter,
// then each configuration's clustering, score and report — and checks
// each report against the sweep's. Silhouette scoring and ensemble
// voting are not replayed.
func replaySweep(ctx context.Context, t *tracer, trace string, tr *netmsg.Trace, rep *sweep.Report, ps *passStats) {
	var dd *netmsg.Trace
	t.step("netmsg.dedup", trace, func() { dd = tr.Deduplicate() })
	type group struct {
		segs []netmsg.Segment
		pool *dissim.Pool
		m    *dissim.Matrix
		err  error
	}
	groups := map[string]*group{}
	for _, c := range rep.Configs {
		name := trace + " " + c.Config.Label()
		g := groups[c.Config.Segmenter]
		if g == nil {
			g = &group{}
			groups[c.Config.Segmenter] = g
			detail := trace + " " + c.Config.Segmenter
			g.segs, g.err = segmentTrace(ctx, t, detail, dd, c.Config.Segmenter)
			if g.err == nil {
				g.pool, g.m, g.err = buildMatrix(ctx, t, detail, g.segs, core.DefaultParams())
			}
		}
		if g.err != nil {
			ps.fail("replay "+name, g.err)
			continue
		}
		res, err := clusterPool(ctx, t, name, g.pool, g.m, configParams(c.Config))
		if err != nil {
			ps.fail("replay "+name, err)
			continue
		}
		a := &analysis{dd: dd, segs: g.segs, res: res}
		evaluate(t, name, a)
		got, err := buildReport(t, name, a)
		if err != nil {
			ps.fail("replay "+name, err)
			continue
		}
		want, err := json.Marshal(c.Report)
		if err != nil {
			ps.fail("replay "+name, err)
			continue
		}
		if !bytes.Equal(got, want) {
			ps.check("replay "+name, "replayed report differs from the sweep's")
		} else {
			ps.check("replay " + name)
		}
	}
}
