package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"

	"protoclust"
	"protoclust/internal/core"
	"protoclust/internal/dbscan"
	"protoclust/internal/dissim"
	"protoclust/internal/eval"
	"protoclust/internal/netmsg"
	"protoclust/internal/segment"
	"protoclust/internal/semantics"
)

// reportSamples is the per-cluster hex sample count of every report the
// benchmark builds; it matches the sweep harness's default so replayed
// reports compare byte for byte.
const reportSamples = 3

// analysis is one pipeline run, composed from the layers' public calls
// in the order protoclust.AnalyzeContext runs them.
type analysis struct {
	dd   *netmsg.Trace
	segs []netmsg.Segment
	res  *core.Result
}

// analyse runs dedup → segment → pool → matrix → clustering on tr.
func analyse(ctx context.Context, t *tracer, detail string, tr *netmsg.Trace, segmenter string, p core.Params) (*analysis, error) {
	a := &analysis{}
	t.step("netmsg.dedup", detail, func() { a.dd = tr.Deduplicate() })
	var err error
	if a.segs, err = segmentTrace(ctx, t, detail, a.dd, segmenter); err != nil {
		return nil, err
	}
	pool, m, err := buildMatrix(ctx, t, detail, a.segs, p)
	if err != nil {
		return nil, err
	}
	if a.res, err = clusterPool(ctx, t, detail, pool, m, p); err != nil {
		return nil, err
	}
	return a, nil
}

// segmentTrace splits the deduplicated trace into field candidates.
func segmentTrace(ctx context.Context, t *tracer, detail string, dd *netmsg.Trace, segmenter string) ([]netmsg.Segment, error) {
	seg, err := protoclust.NewSegmenter(segmenter)
	if err != nil {
		return nil, err
	}
	var segs []netmsg.Segment
	if err := t.do("segment.run", detail, func() (err error) {
		segs, err = segment.Run(ctx, seg, dd)
		return err
	}); err != nil {
		return nil, fmt.Errorf("segment %s: %w", detail, err)
	}
	t.add("segment.segments", float64(len(segs)))
	return segs, nil
}

// buildMatrix deduplicates segments into a pool and computes its
// dissimilarity matrix on the backend p selects.
func buildMatrix(ctx context.Context, t *tracer, detail string, segs []netmsg.Segment, p core.Params) (*dissim.Pool, *dissim.Matrix, error) {
	var pool *dissim.Pool
	t.step("dissim.pool", detail, func() { pool = dissim.NewPool(segs) })
	n := pool.Size()
	t.add("dissim.pool_unique", float64(n))
	t.add("dissim.pairs", float64(n)*float64(n-1)/2)
	var m *dissim.Matrix
	err := t.do("dissim.matrix", detail, func() (err error) {
		m, err = dissim.ComputeMatrixContext(ctx, pool, dissim.Config{
			Penalty:      p.Penalty,
			Backend:      p.MatrixBackend,
			MemoryBudget: p.MemoryBudget,
		})
		return err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("matrix %s: %w", detail, err)
	}
	if m.Backend() == dissim.BackendTiled {
		t.add("dissim.lazy_builds", 1)
	}
	return pool, m, nil
}

// kMax and minSamples restate core's k-NN rank bound and DBSCAN
// min_samples (both round(ln n), clamped) so the probes below ask the
// layers for exactly what core.ClusterPoolContext asks them for.
func kMax(n int) int { return min(max(int(math.Round(math.Log(float64(n)))), 2), n-1) }

func minSamples(n int) int { return max(int(math.Round(math.Log(float64(n)))), 2) }

// clusterPool runs core.ClusterPoolContext. When tracing, it first
// probes the layers that call hides — one k-NN table, the ε
// auto-configuration and the density clusterer — so their cost shows
// per layer; guard and refinement are what remains of the pool call.
func clusterPool(ctx context.Context, t *tracer, detail string, pool *dissim.Pool, m *dissim.Matrix, p core.Params) (*core.Result, error) {
	if t != nil {
		if err := probeClusterer(ctx, t, detail, m, p); err != nil {
			return nil, fmt.Errorf("probe %s: %w", detail, err)
		}
	}
	var res *core.Result
	err := t.do("core.cluster_pool", detail, func() (err error) {
		res, err = core.ClusterPoolContext(ctx, pool, m, p)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("cluster %s: %w", detail, err)
	}
	t.max("dissim.resident_bytes", float64(m.ResidentBytes()))
	if res.Reconfigured {
		t.add("core.reconfigured", 1)
	}
	return res, nil
}

func probeClusterer(ctx context.Context, t *tracer, detail string, m *dissim.Matrix, p core.Params) error {
	n := m.Len()
	eps, minPts := p.FixedEpsilon, minSamples(n)
	if p.FixedEpsilon <= 0 {
		err := t.probe("dissim.knn", detail, func() error {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := m.KNNTable(kMax(n))
			runtime.ReadMemStats(&after)
			t.add("dissim.knn_allocs", float64(after.Mallocs-before.Mallocs))
			return err
		})
		if err != nil {
			return err
		}
		var cfg *core.AutoConfig
		if err := t.probe("core.configure", detail, func() (err error) {
			cfg, err = core.ConfigureContext(ctx, m, p)
			return err
		}); err != nil {
			return err
		}
		t.add("core.auto", 1)
		t.add("core.k", float64(cfg.K))
		if cfg.FromKnee {
			t.add("core.from_knee", 1)
		}
		eps, minPts = cfg.Epsilon, cfg.MinSamples
	}
	switch p.Clusterer {
	case "", "dbscan":
		return t.probe("dbscan.cluster", detail, func() error {
			r, err := dbscan.Cluster(m, eps, minPts)
			if err != nil {
				return err
			}
			share, _ := r.LargestClusterShare()
			t.add("dbscan.runs", 1)
			t.add("dbscan.largest_share", share)
			return nil
		})
	case "optics":
		return t.probe("dbscan.optics", detail, func() error {
			order, err := dbscan.OPTICS(m, 1, minPts)
			if err == nil {
				dbscan.ExtractDBSCAN(order, n, eps)
			}
			return err
		})
	case "hdbscan":
		return t.probe("dbscan.hdbscan", detail, func() error {
			_, err := dbscan.HDBSCAN(m, minPts, minPts)
			return err
		})
	}
	return fmt.Errorf("unknown clusterer %q", p.Clusterer)
}

// quality is the truth-based score of one analysis.
type quality struct {
	fscore, coverage float64
	metrics          eval.Metrics
}

// evaluate scores an analysis against the trace's ground truth.
func evaluate(t *tracer, detail string, a *analysis) quality {
	var q quality
	t.step("eval.evaluate", detail, func() {
		q.metrics = eval.EvaluateResult(a.res)
		q.fscore = q.metrics.FScore
		q.coverage = eval.Coverage(a.res, a.dd)
	})
	return q
}

// buildReport serializes the analysis's JSON report, as the CLI's
// -json output does. When tracing, the semantic deduction the report
// embeds is probed on its own first.
func buildReport(t *tracer, detail string, a *analysis) ([]byte, error) {
	t.probeStep("semantics.deduce", detail, func() { semantics.DeduceAll(a.res) })
	var out []byte
	err := t.do("report.build", detail, func() (err error) {
		out, err = json.Marshal(protoclust.NewAnalysis(a.dd, a.segs, a.res).Report(reportSamples))
		return err
	})
	return out, err
}
