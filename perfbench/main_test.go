package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"protoclust/internal/golden"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func tinySizes() sizes {
	return sizes{
		goldenTraces:  golden.DefaultTraces()[:2],
		goldenFormats: golden.DefaultFormatTraces()[:1],
		tiledTraces:   1,
		sweepTraces:   1,
		tiledMessages: 100,
		sweepMessages: 100,
		budget:        64 << 10,
	}
}

// TestWorkloadsEmitEveryMetric runs each workload of BENCHMARK.json at
// a tiny size, untraced and traced, and checks that the result is
// correct and carries exactly the metrics BENCHMARK.json names, with
// their units.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			if traced {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			cfg := config{
				root: "..", out: t.TempDir(), workload: w.Name, seed: 2,
				trace: traced, sizes: tinySizes(),
			}
			var out bytes.Buffer
			res, err := bench(context.Background(), cfg, &printer{w: &out})
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d\n%s",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%t: metric %s missing", w.Name, traced, name)
				case got.Unit != unit:
					t.Errorf("%s traced=%t: metric %s unit %q, want %q", w.Name, traced, name, got.Unit, unit)
				}
				if !strings.Contains(out.String(), name+" ") {
					t.Errorf("%s traced=%t: metric %s not printed", w.Name, traced, name)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s traced=%t: metric %s is not in BENCHMARK.json", w.Name, traced, name)
				}
			}
		}
	}
}

// TestRunRejectsBadFlags checks that a bad invocation exits non-zero
// without printing a result.
func TestRunRejectsBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "1"},
		{"--workload", "golden", "--trace", "2"},
		{"--workload", "golden", "--seconds", "0"},
	} {
		if code, err := run(context.Background(), args, &stdout, &stderr); code == 0 || err == nil {
			t.Errorf("%v: exit code %d, error %v", args, code, err)
		}
	}
	if strings.Contains(stdout.String(), `"correct"`) {
		t.Errorf("a failed run printed a result:\n%s", stdout.String())
	}
}
