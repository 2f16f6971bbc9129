package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/fleet"
	"repro/internal/gateway"
)

const (
	// baseRate is serve-warm's offered load in requests per second, about a
	// quarter of what the front door answers on two connections. At 2000/s
	// the host's own contention episodes push the wall p90 of whole runs from
	// 1.5 ms to 5 ms.
	baseRate = 1000.0
	// rampStep is how long serve-warm offers each ramp rate.
	rampStep = 500 * time.Millisecond
	// sloMs limits serve-warm's wall latency at percentile sloQ. The limit
	// sits on p90, not p99: on a shared two-CPU host, p99 near the knee of
	// the latency curve swings 4-20 ms between identical runs, p90 by a few
	// percent.
	sloQ       = 0.9
	sloMs      = 3.0
	scrapeTick = 20 * time.Millisecond // /v1/metrics cadence
	// coldRequests is the size of serve-cold's burst on a fresh gateway. The
	// whole burst is due at once: a cold resolution takes ~85 ms, so any
	// rate above ~12/s builds the same backlog, and spreading the intended
	// send times only subtracts a constant from a completion time whose
	// run-to-run noise stays, which amplified the spread of the median by
	// 1.3x at 50/s.
	coldRequests = 150
	coldMaxSize  = 512
	// capacityRequests is the length of serve-warm's closed-loop phase.
	capacityRequests = 8000
)

// warmSizes is serve-warm's and fleet-replay's request-size set; 1024 lies
// above the split cap, so those requests can be split.
var warmSizes = []int{16, 64, 128, 256, 1024}

// rampRates are the offered loads serve-warm steps through after its base
// phase to find the highest rate that meets the latency limit.
var rampRates = []float64{1500, 2000, 2500, 3000, 3500, 4000}

// pickWarm draws one serve-warm request: either model, either tenant, a size
// from warmSizes.
func pickWarm(rng *rand.Rand) gateway.InferRequest {
	return gateway.InferRequest{
		Model:  rng.Intn(len(servingModels)),
		Tenant: rng.Intn(len(servingTenants())),
		Size:   warmSizes[rng.Intn(len(warmSizes))],
	}
}

// phaseSummary accounts one phase: every request is answered (served or
// shed) or errored; lost is whatever is left.
type phaseSummary struct {
	sent, served, shed, errors, lost int
	wall, lag, rtt, sojourn          []float64 // ms, us, us, simulated us
}

func summarize(p *phaseResult) phaseSummary {
	var s phaseSummary
	for i := range p.samples {
		x := &p.samples[i]
		if x.intended.IsZero() {
			continue
		}
		s.sent++
		switch {
		case !x.answered():
			s.errors++
		case x.servedOK():
			s.served++
			s.sojourn = append(s.sojourn, x.sojournSim*1e6)
		case x.shedOutcome():
			s.shed++
		}
		s.wall = append(s.wall, x.wallMs())
		s.lag = append(s.lag, x.lagUs())
		s.rtt = append(s.rtt, x.rttUs())
	}
	s.lost = len(p.samples) - s.served - s.shed - s.errors
	return s
}

// reportPhase prints one phase's generator accounting and latency.
func (b *bench) reportPhase(name string, p *phaseResult, s phaseSummary) {
	b.logf("phase %s: offered %.0f/s for %.2fs: sent %d served %d shed %d errors %d lost %d",
		name, p.rate, p.elapsed.Seconds(), s.sent, s.served, s.shed, s.errors, s.lost)
	n := len(s.wall)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if supported(n, q) {
			b.report(name, fmt.Sprintf("wall_p%.0f_ms", q*100), quantile(s.wall, q), "ms", n)
			b.report(name, fmt.Sprintf("send_lag_p%.0f_us", q*100), quantile(s.lag, q), "us", n)
		}
	}
	if n > 0 {
		b.report(name, "send_lag_max_us", quantile(s.lag, 1), "us", n)
	}
}

// serveWarm: live HTTP at warp 1 over a pool whose service memo a warm-up
// phase filled, at the base rate and then at rising rates.
func serveWarm(b *bench) error {
	live, fresh, err := b.servingSetups()
	if err != nil {
		return err
	}
	lg, err := startGateway(live, b.tr)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(b.seed))

	// Warm-up: every (model, tenant, size) once, one at a time; excluded
	// from timing, reported on its own.
	var warm []planned
	for m := range servingModels {
		for t := range servingTenants() {
			for _, size := range warmSizes {
				warm = append(warm, plan(float64(len(warm))*0.002, gateway.InferRequest{Model: m, Tenant: t, Size: size}))
			}
		}
	}
	wp := lg.run(warm, 0, 0)
	ws := summarize(wp)
	b.reportPhase("warmup", wp, ws)
	mark := live.probe.mark()
	b.logf("warm-up resolved %d inner measurements", mark)

	// Every phase's schedule is drawn before the first send, so the seed
	// alone fixes the inputs even though the ramp may stop early.
	basePlan := poissonSchedule(rng, baseRate, time.Duration(b.seconds/2*float64(time.Second)), pickWarm)
	var rampPlans [][]planned
	for _, rate := range rampRates {
		rampPlans = append(rampPlans, poissonSchedule(rng, rate, rampStep, pickWarm))
	}
	var closed []planned
	for i := 0; i < capacityRequests; i++ {
		closed = append(closed, plan(0, pickWarm(rng)))
	}

	bw0 := lg.session.busy.Load()
	bytes0 := lg.session.bytesLen()
	base := lg.run(basePlan, baseRate, scrapeTick)
	bs := summarize(base)
	b.reportPhase("base", base, bs)
	sessionBusy := time.Duration(lg.session.busy.Load() - bw0)
	sessionBytes := lg.session.bytesLen() - bytes0
	baseCalls := live.probe.since(mark)

	// Ramp: rising offered loads until one misses the limit.
	phases := []*phaseResult{base}
	sums := []phaseSummary{bs}
	for i, rate := range rampRates {
		if !meetsSLO(sums[len(sums)-1], phases[len(phases)-1]) {
			break
		}
		p := lg.run(rampPlans[i], rate, scrapeTick)
		s := summarize(p)
		b.reportPhase(fmt.Sprintf("r%.0f", rate), p, s)
		phases, sums = append(phases, p), append(sums, s)
	}
	maxRPS := maxRateAtSLO(phases, sums)
	b.report("ramp", "max_rps_at_slo", maxRPS, "req/s", len(phases))

	// Capacity: a closed loop, each connection sending its next request as
	// soon as its last one is answered. Its per-request wall times are the
	// gated latencies: the open-loop base phase's percentiles move by 20-50 %
	// between runs with the load other tenants put on the host, the closed
	// loop's by a few percent.
	cp := lg.run(closed, 0, scrapeTick)
	cs := summarize(cp)
	capacity := float64(cs.served+cs.shed) / cp.elapsed.Seconds()
	b.reportPhase("closed", cp, cs)
	b.report("closed", "capacity_rps", capacity, "req/s", cs.sent)
	sums = append(sums, cs)
	for _, p := range append(phases, cp) {
		b.attempted += len(p.scrapes)
		b.failed += p.scrapeErrs
	}

	rep, err := lg.stop()
	all := append([]phaseSummary{ws}, sums...)
	b.serveChecks(lg, rep, err, all)
	verifyS := b.verifyReplay(lg, fresh)

	n := len(bs.wall)
	if !supported(n, 0.99) {
		return fmt.Errorf("base phase has %d samples, too few for p99; raise --seconds", n)
	}
	closedWall := make([]float64, len(cp.samples))
	for i := range cp.samples {
		closedWall[i] = cp.samples[i].rttUs() / 1e3
	}
	b.set("wall_p50_ms", quantile(closedWall, 0.5))
	b.set("wall_tail_ms", quantile(closedWall, sloQ))
	b.report("closed", "wall_p50_ms", quantile(closedWall, 0.5), "ms", len(closedWall))
	b.report("closed", "wall_p90_ms", quantile(closedWall, sloQ), "ms", len(closedWall))
	b.set("throughput_per_s", capacity)
	b.set("sim_us", mean(bs.sojourn))
	b.report("base", "sim_sojourn_mean_us", mean(bs.sojourn), "us", len(bs.sojourn))
	b.report("base", "wall_mean_ms", mean(bs.wall), "ms", len(bs.wall))
	if rep != nil {
		b.fleetLayers(rep.Metrics, rep.Metrics.Served+rep.Metrics.Shed())
	}

	// Layers, from the base phase.
	b.serviceLayers(live, baseCalls)
	b.setQuantile("loadgen.send_lag_p50_us", bs.lag, 0.5)
	b.setQuantile("loadgen.send_lag_p99_us", bs.lag, 0.99)
	b.setQuantile("loadgen.rtt_p50_us", bs.rtt, 0.5)
	b.setLayer("gateway.scrapes", float64(len(base.scrapes)))
	b.setQuantile("gateway.scrape_p50_us", base.scrapes, 0.5)
	b.setQuantile("gateway.scrape_p99_us", base.scrapes, 0.99)
	if bs.served > 0 {
		b.setLayer("gateway.session_write_us", sessionBusy.Seconds()*1e6/float64(bs.sent))
	}
	b.setLayer("gateway.session_bytes", float64(sessionBytes))
	b.setLayer("gateway.replay_verify_s", verifyS)
	b.handlerLayers(base)
	b.overhead(base.elapsed.Seconds())
	return nil
}

// meetsSLO: wall latency within the limit, nothing failed, and no growing
// backlog — the generator is not later at the end of the phase than at its
// start by more than the limit.
func meetsSLO(s phaseSummary, p *phaseResult) bool {
	if s.errors > 0 || s.lost > 0 || !supported(len(s.wall), sloQ) {
		return false
	}
	if quantile(append([]float64(nil), s.wall...), sloQ) > sloMs {
		return false
	}
	q := len(p.samples) / 4
	first, last := make([]float64, 0, q), make([]float64, 0, q)
	for i := 0; i < q; i++ {
		first = append(first, p.samples[i].lagUs())
		last = append(last, p.samples[len(p.samples)-1-i].lagUs())
	}
	return median(last)-median(first) <= sloMs*1e3
}

// maxRateAtSLO is the highest offered rate meeting the limit. When the next
// rate misses it on latency alone, the rate where the limited percentile
// crosses the limit is interpolated linearly between the two.
func maxRateAtSLO(phases []*phaseResult, sums []phaseSummary) float64 {
	best := 0.0
	for i, p := range phases {
		if !meetsSLO(sums[i], p) {
			if i == 0 {
				return best
			}
			lo, hi := sums[i-1], sums[i]
			if hi.errors == 0 && hi.lost == 0 && supported(len(hi.wall), sloQ) {
				p0, p1 := quantile(lo.wall, sloQ), quantile(hi.wall, sloQ)
				if p1 > sloMs && p1 > p0 {
					best = phases[i-1].rate + (p.rate-phases[i-1].rate)*(sloMs-p0)/(p1-p0)
				}
			}
			return best
		}
		best = p.rate
	}
	return best
}

// handlerLayers joins the traced handler spans with the client's records of
// the same requests: time in the handler, time outside it (client and HTTP
// stack), and the handler's time over the simulated sojourn it had to wait
// out at warp 1.
func (b *bench) handlerLayers(p *phaseResult) {
	if b.tr == nil {
		return
	}
	handler := b.tr.byReq("gateway.handler")
	var h, outside, over []float64
	for i := range p.samples {
		s := &p.samples[i]
		d, ok := handler[s.id]
		if !ok || !s.servedOK() {
			continue
		}
		h = append(h, d)
		outside = append(outside, s.rttUs()-d)
		over = append(over, d-s.sojournSim*1e6)
	}
	if len(h) == 0 {
		b.check(false, "no traced handler span matched a served request")
		return
	}
	b.setQuantile("gateway.handler_p50_us", h, 0.5)
	b.setQuantile("gateway.handler_p99_us", h, 0.99)
	b.setQuantile("gateway.outside_handler_p50_us", outside, 0.5)
	b.setQuantile("gateway.over_sim_p50_us", over, 0.5)
	b.setQuantile("gateway.over_sim_p99_us", over, 0.99)
}

// serveChecks applies the serving correctness gate: every attempted request
// answered, none lost, the engine's accounting exact.
func (b *bench) serveChecks(lg *liveGateway, rep *fleet.Report, closeErr error, phases []phaseSummary) {
	for _, s := range phases {
		b.attempted += s.sent
		b.failed += s.errors + s.lost
	}
	b.check(closeErr == nil, "gateway close: %v", closeErr)
	if rep == nil {
		b.check(false, "gateway returned no report")
		return
	}
	st := lg.g.Stats()
	m := rep.Metrics
	b.check(st.Lost == 0, "gateway lost %d admitted requests", st.Lost)
	b.check(st.Admitted == m.Served+m.Shed(), "admitted %d != served %d + shed %d", st.Admitted, m.Served, m.Shed())
	b.check(st.Admitted == len(rep.Outcomes), "admitted %d but the report has %d outcomes", st.Admitted, len(rep.Outcomes))
	var answered int
	for _, s := range phases {
		answered += s.served + s.shed
	}
	b.check(answered == st.Admitted, "client saw %d answers for %d admissions", answered, st.Admitted)
	for i, o := range rep.Outcomes {
		// A split request's chunks run in parallel, so only a whole
		// request's sojourn must cover its service.
		if o == fleet.OutcomeServed && !coversService(rep, i) {
			b.check(false, "request %d: sojourn %g below service %g", i, rep.Sojourn[i], rep.Service[i])
			break
		}
	}
}

// verifyReplay decodes the recorded session log and replays it through a
// freshly built pool; every outcome must match bit for bit.
func (b *bench) verifyReplay(lg *liveGateway, fresh *servingPool) float64 {
	t0 := time.Now()
	sess, err := gateway.ReadSession(bytes.NewReader(lg.session.bytes()))
	if err != nil {
		b.check(false, "session log: %v", err)
		return 0
	}
	_, err = sess.Replay(fresh.pool)
	d := since(t0)
	b.check(err == nil, "session replay through a fresh pool: %v", err)
	b.report("verify", "replay_verify_s", d, "s", len(sess.Requests))
	return d
}

// stratifiedSizes draws n request sizes uniform over 1..max, one from each
// of n equal strata, so the sizes are distinct and their total work varies
// little from seed to seed. The strata are visited with a stride coprime to
// n from a seeded start, so every prefix of the burst carries about its
// share of the work and the cold run's latency percentiles, which sum the
// work ahead of each request, do not hinge on the seed's order.
func stratifiedSizes(rng *rand.Rand, n, max int) []int {
	stride := int(math.Round(float64(n) / math.Phi))
	for gcd(stride, n) != 1 {
		stride++
	}
	start := rng.Intn(n)
	out := make([]int, n)
	for i := range out {
		k := (start + i*stride) % n
		out[i] = 1 + int(math.Floor((float64(k)+rng.Float64())*float64(max)/float64(n)))
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// serveCold: the same front door on a freshly built pool, no warm-up: a
// burst of varied sizes on one model, so first-request service resolution
// runs on the request path.
func serveCold(b *bench) error {
	live, fresh, err := b.servingSetups()
	if err != nil {
		return err
	}
	lg, err := startGateway(live, b.tr)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(b.seed))
	sizes := stratifiedSizes(rng, coldRequests, coldMaxSize)
	var sched []planned
	for _, size := range sizes {
		sched = append(sched, plan(0, gateway.InferRequest{Model: 0, Tenant: rng.Intn(len(servingTenants())), Size: size}))
	}
	mark := live.probe.mark()
	p := lg.run(sched, 0, 0)
	s := summarize(p)
	b.reportPhase("cold", p, s)
	calls := live.probe.since(mark)

	rep, err := lg.stop()
	b.serveChecks(lg, rep, err, []phaseSummary{s})
	verifyS := b.verifyReplay(lg, fresh)

	n := len(s.wall)
	if !supported(n, 0.9) {
		return fmt.Errorf("cold phase has %d samples, too few for p90", n)
	}
	var last time.Time
	for i := range p.samples {
		if p.samples[i].done.After(last) {
			last = p.samples[i].done
		}
	}
	span := last.Sub(p.samples[0].intended).Seconds()
	b.set("wall_p50_ms", quantile(s.wall, 0.5))
	b.set("wall_tail_ms", quantile(s.wall, 0.9))
	b.set("throughput_per_s", float64(s.served)/span)
	b.set("sim_us", mean(s.sojourn))
	b.report("cold", "sim_sojourn_mean_us", mean(s.sojourn), "us", len(s.sojourn))
	b.report("cold", "served_per_s", float64(s.served)/span, "1/s", s.served)
	if rep != nil {
		b.fleetLayers(rep.Metrics, rep.Metrics.Served+rep.Metrics.Shed())
	}
	b.serviceLayers(live, calls)
	quantized := map[int]bool{}
	for _, size := range sizes {
		quantized[(size+quantum-1)/quantum] = true
	}
	b.report("cold", "service.inner_calls", float64(len(calls)), "count", len(calls))
	b.report("cold", "distinct_quantized_sizes", float64(len(quantized)), "count", len(sizes))
	b.setQuantile("loadgen.send_lag_p50_us", s.lag, 0.5)
	b.setQuantile("loadgen.send_lag_p99_us", s.lag, 0.99)
	b.setQuantile("loadgen.rtt_p50_us", s.rtt, 0.5)
	b.setLayer("gateway.session_bytes", float64(lg.session.bytesLen()))
	b.setLayer("gateway.replay_verify_s", verifyS)
	b.handlerLayers(p)
	b.overhead(p.elapsed.Seconds())
	return nil
}
