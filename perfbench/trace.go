package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request (or one replay
// pass, or one tuning cycle) share Req; -1 means the span belongs to none.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// spanParent gives each span name the name of the span that causes it within
// the same Req. Names absent here are roots.
var spanParent = map[string]string{
	"loadgen.send_lag": "loadgen.request",
	"loadgen.rtt":      "loadgen.request",
	"gateway.handler":  "loadgen.rtt",
	"fleet.begin":      "fleet.pass",
	"fleet.admit":      "fleet.pass",
	"fleet.close":      "fleet.pass",
	"core.tune":        "tuner.cycle",
	"core.retune":      "tuner.cycle",
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	cost  time.Duration // wall time spent inside record
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record stores one finished span.
func (t *tracer) record(name string, req int, start, end time.Time) {
	if t == nil {
		return
	}
	c0 := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Req: req, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.cost += time.Since(c0)
	t.mu.Unlock()
}

// byReq returns, for every span called name, its duration in microseconds
// keyed by Req.
func (t *tracer) byReq(name string) map[int]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[int]float64{}
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Req] = float64(s.End-s.Start) / 1e3
		}
	}
	return out
}

// selfTimes links every span to its parent and sets its self time: its
// duration minus the part of it that its children cover.
func (t *tracer) selfTimes() {
	t.mu.Lock()
	defer t.mu.Unlock()
	type key struct {
		name string
		req  int
	}
	parents := map[key]int{}
	for i, s := range t.spans {
		if s.Req >= 0 {
			parents[key{s.Name, s.Req}] = i
		}
	}
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		pn, ok := spanParent[s.Name]
		if !ok || s.Req < 0 {
			continue
		}
		if pi, ok := parents[key{pn, s.Req}]; ok {
			children[pi] = append(children[pi], [2]int64{s.Start, s.End})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Req >= 0 {
			s.Parent = spanParent[s.Name]
		}
		s.Self = s.End - s.Start - covered(children[i], s.Start, s.End)
	}
}

// covered returns how much of [lo, hi) the union of the intervals covers.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		s, e := max(x[0], cur), min(x[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// finishTrace derives self times, writes the spans and a per-name summary to
// dir, and reports the tracer's own cost.
func (b *bench) finishTrace(dir string) {
	t := b.tr
	t.selfTimes()
	type agg struct {
		Count   int     `json:"count"`
		TotalMs float64 `json:"total_ms"`
		SelfMs  float64 `json:"self_ms"`
	}
	summary := map[string]*agg{}
	var names []string
	for _, s := range t.spans {
		a := summary[s.Name]
		if a == nil {
			a = &agg{}
			summary[s.Name] = a
			names = append(names, s.Name)
		}
		a.Count++
		a.TotalMs += float64(s.End-s.Start) / 1e6
		a.SelfMs += float64(s.Self) / 1e6
	}
	sort.Strings(names)
	fmt.Fprintf(b.log, "perfbench: spans (count, total ms, self ms):\n")
	for _, n := range names {
		a := summary[n]
		fmt.Fprintf(b.log, "  %-24s %8d %12.3f %12.3f\n", n, a.Count, a.TotalMs, a.SelfMs)
	}
	b.setLayer("trace.spans", float64(len(t.spans)))
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", b.workload, b.seed))
	out, err := json.Marshal(map[string]any{"workload": b.workload, "seed": b.seed, "summary": summary, "spans": t.spans})
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err == nil {
		err = os.WriteFile(path, out, 0o644)
	}
	if err != nil {
		b.logf("writing spans: %v", err)
		return
	}
	b.logf("spans written to %s", path)
}

// overhead reports the tracer's own recording time as a share of wall.
func (b *bench) overhead(wall float64) {
	if b.tr == nil || !(wall > 0) {
		return
	}
	b.tr.mu.Lock()
	cost := b.tr.cost.Seconds()
	b.tr.mu.Unlock()
	b.setLayer("trace.overhead_ratio", cost/wall)
}

// quantile is nearest-rank selection of p over xs (which it sorts in place).
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// supported reports whether at least ten of n samples lie beyond the p-th
// percentile, the condition for reporting that percentile.
func supported(n int, p float64) bool {
	return n-int(math.Ceil(p*float64(n))) >= 10
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

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
