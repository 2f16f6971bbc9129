package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/fleet"
	"repro/internal/trace"
)

const (
	// replayRequests is the dense stream's length; replayRate its offered
	// load in simulated requests per second, above what four workers serve
	// for warmSizes, so the shared queue fills, splits and sheds.
	replayRequests = 8192
	replayRate     = 60000.0
	// minPasses keeps the pass sample large enough for its tail percentile
	// (ten passes beyond p80).
	minPasses = 50
	passTailQ = 0.8
)

// denseStream merges one Poisson stream per (model, tenant) pair into the
// fleet-replay input.
func denseStream(rng *rand.Rand) []fleet.Request {
	var streams []fleet.Stream
	pairs := len(servingModels) * len(servingTenants())
	for m := range servingModels {
		for t := range servingTenants() {
			var reqs []trace.Request
			at := 0.0
			for i := 0; i < replayRequests/pairs; i++ {
				at += rng.ExpFloat64() / (replayRate / float64(pairs))
				reqs = append(reqs, trace.Request{Arrival: at, Size: warmSizes[rng.Intn(len(warmSizes))]})
			}
			streams = append(streams, fleet.Stream{Model: m, Tenant: t, Reqs: reqs})
		}
	}
	return fleet.Merge(streams...)
}

// fleetReplay: offline Pool.Serve of a dense two-model, two-tenant stream,
// repeated on a pool whose service memo is warm. No HTTP.
func fleetReplay(b *bench) error {
	live, fresh, err := b.servingSetups()
	if err != nil {
		return err
	}
	stream := denseStream(rand.New(rand.NewSource(b.seed)))

	// Warm the live pool's memo; the first report is the reference every
	// timed pass and the fresh pool must reproduce exactly.
	t0 := time.Now()
	ref, err := live.pool.Serve(stream)
	if err != nil {
		return fmt.Errorf("warm-up pass: %w", err)
	}
	b.report("warmup", "pass_s", since(t0), "s", 1)
	b.logf("warm-up resolved %d inner measurements", live.probe.mark())
	b.attempted++
	b.replayChecks(ref, len(stream))
	got, err := fresh.pool.Serve(stream)
	b.attempted++
	if err != nil {
		b.failed++
		b.check(false, "fresh-pool pass: %v", err)
	} else if d := diffReports(ref, got); d != "" {
		b.check(false, "a fresh pool replays the stream differently: %s", d)
	}

	mark := live.probe.mark()
	var walls, begins []float64 // ms
	var total time.Duration
	deadline := time.Now().Add(time.Duration(b.seconds * float64(time.Second)))
	for pass := 0; pass < minPasses || time.Now().Before(deadline); pass++ {
		s := time.Now()
		rep, begin, err := b.replayPass(live.pool, stream, pass)
		e := time.Now()
		b.attempted++
		if err != nil {
			b.failed++
			b.check(false, "pass %d: %v", pass, err)
			break
		}
		if d := diffReports(ref, rep); d != "" {
			b.failed++
			b.check(false, "pass %d differs from the first: %s", pass, d)
			break
		}
		total += e.Sub(s)
		walls = append(walls, e.Sub(s).Seconds()*1e3)
		begins = append(begins, begin.Seconds()*1e3)
	}
	calls := live.probe.since(mark)
	n := len(walls)
	if !supported(n, passTailQ) {
		return fmt.Errorf("only %d passes, too few for p%.0f", n, passTailQ*100)
	}
	m := ref.Metrics
	served := servedSojournsUs(ref)
	b.logf("stream: %d requests; %s", len(stream), m)
	b.set("wall_p50_ms", quantile(walls, 0.5))
	b.set("wall_tail_ms", quantile(walls, passTailQ))
	b.set("throughput_per_s", float64(n*len(stream))/total.Seconds())
	b.set("sim_us", mean(served))
	b.report("replay", "pass_p50_ms", quantile(walls, 0.5), "ms", n)
	b.report("replay", "pass_p80_ms", quantile(walls, passTailQ), "ms", n)
	b.report("replay", "replay_rps", float64(n*len(stream))/total.Seconds(), "req/s", n)
	b.report("replay", "sim_sojourn_mean_us", mean(served), "us", len(served))
	b.report("replay", "sim_sojourn_p99_us", quantile(served, 0.99), "us", len(served))
	b.report("replay", "shed_ratio", float64(m.Shed())/float64(len(stream)), "ratio", len(stream))

	b.serviceLayers(live, calls)
	b.fleetLayers(m, len(stream))
	if b.tr != nil {
		engine := make([]float64, n)
		for i := range walls {
			engine[i] = (walls[i] - begins[i]) * 1e6 / float64(len(stream))
		}
		b.setLayer("fleet.begin_ms", median(begins))
		b.setLayer("fleet.ns_per_req", median(engine))
	}
	b.overhead(total.Seconds())
	return nil
}

// replayPass replays the stream once. An untraced run calls Pool.Serve; a
// traced run drives the same Live engine Serve is built on — Begin, Admit in
// arrival order, Close — timing session start apart from the per-request
// work. The stream is already in arrival order, so both produce the same
// report.
func (b *bench) replayPass(pool *fleet.Pool, stream []fleet.Request, pass int) (*fleet.Report, time.Duration, error) {
	if b.tr == nil {
		rep, err := pool.Serve(stream)
		return rep, 0, err
	}
	t0 := time.Now()
	l := pool.Begin()
	t1 := time.Now()
	for _, r := range stream {
		if _, _, err := l.Admit(r); err != nil {
			l.Abort()
			return nil, 0, err
		}
	}
	t2 := time.Now()
	rep, _, err := l.Close()
	t3 := time.Now()
	b.tr.record("fleet.pass", pass, t0, t3)
	b.tr.record("fleet.begin", pass, t0, t1)
	b.tr.record("fleet.admit", pass, t1, t2)
	b.tr.record("fleet.close", pass, t2, t3)
	return rep, t1.Sub(t0), err
}

// replayChecks applies conservation to one report: every request resolved
// exactly once, served plus shed equal to the stream, a whole request's
// sojourn never below its service (a split's chunks run in parallel).
func (b *bench) replayChecks(rep *fleet.Report, n int) {
	m := rep.Metrics
	b.check(len(rep.Outcomes) == n, "report has %d outcomes for %d requests", len(rep.Outcomes), n)
	b.check(m.Served+m.Shed() == n, "served %d + shed %d != %d requests", m.Served, m.Shed(), n)
	served := 0
	for i, o := range rep.Outcomes {
		if o == fleet.OutcomeServed || o == fleet.OutcomeSplit {
			served++
			if o == fleet.OutcomeServed && !coversService(rep, i) {
				b.check(false, "request %d: sojourn %g below service %g", i, rep.Sojourn[i], rep.Service[i])
				return
			}
		}
	}
	b.check(served == m.Served, "%d served outcomes but Metrics.Served %d", served, m.Served)
}

// coversService reports whether request i's sojourn covers its service. The
// engine computes sojourn as (dispatch + service) - arrival in floating
// point, so a request dispatched on arrival may come out one rounding step
// short; the check allows that much.
func coversService(rep *fleet.Report, i int) bool {
	end := rep.Dispatch[i] + rep.Service[i]
	return rep.Sojourn[i] >= rep.Service[i]-4*ulp(end)
}

func ulp(x float64) float64 { return math.Nextafter(math.Abs(x), math.Inf(1)) - math.Abs(x) }

// diffReports names the first per-request difference between two reports,
// comparing floats bit for bit; "" means identical.
func diffReports(a, b *fleet.Report) string {
	if len(a.Outcomes) != len(b.Outcomes) {
		return fmt.Sprintf("%d vs %d outcomes", len(a.Outcomes), len(b.Outcomes))
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i := range a.Outcomes {
		if a.Outcomes[i] != b.Outcomes[i] || a.Worker[i] != b.Worker[i] ||
			!same(a.Sojourn[i], b.Sojourn[i]) || !same(a.Dispatch[i], b.Dispatch[i]) || !same(a.Service[i], b.Service[i]) {
			return fmt.Sprintf("request %d", i)
		}
	}
	if a.Metrics.String() != b.Metrics.String() {
		return fmt.Sprintf("metrics %q vs %q", a.Metrics, b.Metrics)
	}
	if ca, cb := a.Metrics.Cache, b.Metrics.Cache; (ca == nil) != (cb == nil) || (ca != nil && ca.String() != cb.String()) {
		return "embedding-cache accounting"
	}
	return ""
}

// servedSojournsUs lists a report's served sojourns in microseconds.
func servedSojournsUs(rep *fleet.Report) []float64 {
	var out []float64
	for i, o := range rep.Outcomes {
		if o == fleet.OutcomeServed || o == fleet.OutcomeSplit {
			out = append(out, rep.Sojourn[i]*1e6)
		}
	}
	return out
}
