package main

import (
	"cmp"
	"slices"
	"time"
)

// span is one timed call into a layer. Spans of one pass share Run;
// Parent is the enclosing span's ID, or -1 for the pass itself.
type span struct {
	Run    int     `json:"run"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Detail string  `json:"detail,omitempty"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	// Probe marks a call the benchmark adds to time a layer that the
	// pass itself reaches only inside an opaque call; probes are
	// subtracted when the traced pass is compared with the untraced one.
	Probe bool `json:"probe,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer records spans and counts in memory for one run of the
// benchmark. Every method accepts a nil receiver, which is the untraced
// mode: layer calls run directly and probes are skipped.
type tracer struct {
	t0     time.Time
	run    int
	spans  []span
	open   []int
	counts map[string]float64
	// maxima holds counts that aggregate by maximum, not sum.
	maxima map[string]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin starts pass run with its root span.
func (t *tracer) begin(run int, name string) {
	t.run = run
	t.counts = map[string]float64{}
	t.maxima = map[string]float64{}
	t.open = t.open[:0]
	t.push(name, "", false)
}

// end closes the pass's root span.
func (t *tracer) end() { t.pop() }

func (t *tracer) now() float64 { return time.Since(t.t0).Seconds() }

func (t *tracer) push(name, detail string, probe bool) {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{
		Run: t.run, ID: len(t.spans), Parent: parent,
		Name: name, Detail: detail, Start: t.now(), Probe: probe,
	})
	t.open = append(t.open, len(t.spans)-1)
}

func (t *tracer) pop() {
	id := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = t.now()
}

// step runs fn as the layer call name; detail distinguishes calls of
// the same layer (the trace spec, the sweep configuration).
func (t *tracer) step(name, detail string, fn func()) {
	if t != nil {
		t.push(name, detail, false)
		defer t.pop()
	}
	fn()
}

// probeStep runs fn as a probe span, and only when tracing.
func (t *tracer) probeStep(name, detail string, fn func()) {
	if t == nil {
		return
	}
	t.push(name, detail, true)
	defer t.pop()
	fn()
}

// do is step for a call that can fail.
func (t *tracer) do(name, detail string, fn func() error) (err error) {
	t.step(name, detail, func() { err = fn() })
	return err
}

// probe is probeStep for a call that can fail.
func (t *tracer) probe(name, detail string, fn func() error) (err error) {
	t.probeStep(name, detail, func() { err = fn() })
	return err
}

// add accumulates a count of the current pass.
func (t *tracer) add(name string, v float64) {
	if t != nil {
		t.counts[name] += v
	}
}

// max records the largest value of a count in the current pass.
func (t *tracer) max(name string, v float64) {
	if t != nil && v > t.maxima[name] {
		t.maxima[name] = v
	}
}

// runSpans returns the spans of pass run.
func (t *tracer) runSpans(run int) []span {
	var out []span
	for _, s := range t.spans {
		if s.Run == run {
			out = append(out, s)
		}
	}
	return out
}

// netDur is root's duration minus the probes it contains, counting
// each probe only when no other probe lies between it and root.
func netDur(spans []span, byID map[int]span, root span) float64 {
	d := root.dur()
	for _, s := range spans {
		if !s.Probe || s.ID == root.ID {
			continue
		}
		for p := s.Parent; p >= 0; p = byID[p].Parent {
			if p == root.ID {
				d -= s.dur()
				break
			}
			if byID[p].Probe {
				break
			}
		}
	}
	return d
}

// netDurs totals netDur over the spans named name; the pass root's is
// the part of a traced pass that corresponds to an untraced pass.
func netDurs(spans []span, name string) float64 {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	var d float64
	for _, s := range spans {
		if s.Name == name {
			d += netDur(spans, byID, s)
		}
	}
	return d
}

// sumDur totals the durations of the spans named name.
func sumDur(spans []span, name string) float64 {
	var d float64
	for _, s := range spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}

// selfTime is a layer's time minus the part its child spans cover,
// totalled per span name.
type selfTime struct {
	Name  string  `json:"name"`
	Calls int     `json:"calls"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"`
}

func selfTimes(spans []span) []selfTime {
	child := make(map[int]float64)
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	byName := make(map[string]*selfTime)
	for _, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			byName[s.Name] = st
		}
		st.Calls++
		st.Total += s.dur()
		st.Self += s.dur() - child[s.ID]
	}
	out := make([]selfTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	slices.SortFunc(out, func(a, b selfTime) int { return cmp.Compare(b.Self, a.Self) })
	return out
}
