package fleet_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fleet"
	"repro/internal/trace"
)

// The fleet pool degenerates to the single-model serving engine: with one
// model, one tenant and FIFO admission, the pool must reproduce trace.Server
// bit for bit — per-request outcomes and sojourns, per-worker Served and
// Busy, peak queue depth, makespan and the served/split/timeout/shed
// counters. Both engines follow the same two rules: a dispatch goes to the
// lowest-index worker among those that can start it earliest, and a full
// queue (split chunks included) sheds the arriving request under every
// policy.

// oneModelCase is one single-model serving configuration: a queue policy,
// an arrival-ordered stream and a size-proportional service time.
type oneModelCase struct {
	q         trace.QueuePolicy
	reqs      []trace.Request
	perSample float64
}

func (c oneModelCase) String() string {
	return fmt.Sprintf("workers=%d depth=%d deadline=%g policy=%v cap=%d n=%d",
		c.q.Workers, c.q.QueueDepth, c.q.Deadline, c.q.Policy, c.q.SplitCap, len(c.reqs))
}

// randomOneModelCase draws a configuration from the property's space: 1-4
// workers, queue depth 0-8, deadline on or off, all three policies, split
// cap on or off, 200-8000 qps. Some requests carry their own deadline.
func randomOneModelCase(rng *rand.Rand) (oneModelCase, error) {
	c := oneModelCase{
		q: trace.QueuePolicy{
			Workers:    1 + rng.Intn(4),
			QueueDepth: rng.Intn(9),
			Policy:     trace.DegradePolicy(rng.Intn(3)),
		},
		perSample: 1e-6,
	}
	if rng.Intn(2) == 0 {
		c.q.Deadline = 1e-4 + rng.Float64()*5e-3
	}
	if rng.Intn(2) == 0 {
		c.q.SplitCap = 512
	}
	reqs, err := trace.Generate(150+rng.Intn(150), trace.GeneratorConfig{
		QPS:      200 + rng.Float64()*7800,
		MaxBatch: 512,
		TailProb: 0.1,
		TailSize: 2560,
		Seed:     rng.Int63(),
	})
	if err != nil {
		return c, err
	}
	if c.q.Deadline > 0 {
		for i := range reqs {
			if rng.Intn(10) == 0 {
				reqs[i].Deadline = 1e-4 + rng.Float64()*2e-3
			}
		}
	}
	c.reqs = reqs
	return c, nil
}

// caseStats records which degradation paths a compared case exercised.
type caseStats struct {
	queueSheds, splits bool
}

// compareOneModel serves c through trace.Server and through a one-model,
// one-tenant FIFO pool and returns the first divergence (nil when the two
// agree bit for bit). supervised drives the pool's model through a
// never-detecting supervisor instead of a static service; preempt arms the
// pool's chunk-boundary preemption, which must never fire with one tenant.
func compareOneModel(c oneModelCase, supervised, preempt bool) (caseStats, error) {
	var st caseStats
	svc := func(_ float64, size int) (float64, error) { return c.perSample * float64(size), nil }
	srv, err := trace.NewServer(trace.ServerConfig{
		Workers:    c.q.Workers,
		QueueDepth: c.q.QueueDepth,
		Deadline:   c.q.Deadline,
		Policy:     c.q.Policy,
		SplitCap:   c.q.SplitCap,
	}, func(size int) (float64, error) { return svc(0, size) })
	if err != nil {
		return st, err
	}
	// The server replays the stream twice: the second run goes through the
	// pooled replay scratch and the memoized service times, and must stay
	// exactly equivalent to the first.
	if _, err := srv.Serve(c.reqs); err != nil {
		return st, err
	}
	tr, err := srv.Serve(c.reqs)
	if err != nil {
		return st, err
	}

	m := fleet.Model{Name: "m", Service: svc}
	var sv *trace.Supervisor
	if supervised {
		never := func([]trace.WindowEntry) (bool, error) { return false, nil }
		noTune := func(int, []trace.WindowEntry) (trace.TimedServiceFunc, error) {
			return nil, fmt.Errorf("never-detect supervisor re-tuned")
		}
		sv, err = trace.NewSupervisor(trace.SupervisorConfig{Window: 4}, svc, never, noTune)
		if err != nil {
			return st, err
		}
		m = fleet.Model{Name: "m", Supervisor: sv}
	}
	pool, err := fleet.NewPool(fleet.Config{Queue: c.q, Admission: fleet.FIFO{}, Preempt: preempt},
		[]fleet.Model{m}, []fleet.TenantSpec{{Name: "only"}})
	if err != nil {
		return st, err
	}
	fr, err := pool.Serve(fleet.Merge(fleet.Stream{Reqs: c.reqs}))
	if err != nil {
		return st, err
	}
	mr := fr.ModelReports[0]

	for i := range c.reqs {
		if mr.Outcomes[i] != tr.Outcomes[i] {
			return st, fmt.Errorf("outcome[%d] pool=%v server=%v", i, mr.Outcomes[i], tr.Outcomes[i])
		}
		if !eqNaN(fr.Sojourn[i], tr.Sojourn[i]) || !eqNaN(mr.Sojourn[i], tr.Sojourn[i]) {
			return st, fmt.Errorf("sojourn[%d] pool=%g model view=%g server=%g", i, fr.Sojourn[i], mr.Sojourn[i], tr.Sojourn[i])
		}
		if mr.Generations[i] != 0 {
			return st, fmt.Errorf("request %d stamped generation %d without a swap", i, mr.Generations[i])
		}
	}
	fm, tm := mr.Metrics, tr.Metrics
	type counters struct {
		served, split, timeouts, queueSheds, deadlineSheds, quotaSheds, loadSheds int
	}
	fc := counters{fm.Served, fm.SplitServed, fm.Timeouts, fm.QueueSheds, fm.DeadlineSheds, fm.QuotaSheds, fm.LoadSheds}
	tc := counters{tm.Served, tm.SplitServed, tm.Timeouts, tm.QueueSheds, tm.DeadlineSheds, tm.QuotaSheds, tm.LoadSheds}
	if fc != tc {
		return st, fmt.Errorf("counters pool=%+v server=%+v", fc, tc)
	}
	pm := fr.Metrics
	if pm.Served != tm.Served || pm.SplitServed != tm.SplitServed || pm.Timeouts != tm.Timeouts ||
		pm.ShedQueue != tm.QueueSheds || pm.ShedDeadline != tm.DeadlineSheds {
		return st, fmt.Errorf("pool-wide counters %s, server %s", pm, tm)
	}
	if pm.Preemptions != 0 {
		return st, fmt.Errorf("%d preemptions in a single-priority run", pm.Preemptions)
	}
	if pm.MaxQueueDepth != tm.MaxQueueDepth {
		return st, fmt.Errorf("max queue depth pool=%d server=%d", pm.MaxQueueDepth, tm.MaxQueueDepth)
	}
	if pm.Makespan != tm.Makespan {
		return st, fmt.Errorf("makespan pool=%g server=%g", pm.Makespan, tm.Makespan)
	}
	if len(pm.Workers) != len(tm.Workers) {
		return st, fmt.Errorf("worker counts pool=%d server=%d", len(pm.Workers), len(tm.Workers))
	}
	for w := range pm.Workers {
		if pm.Workers[w].Served != tm.Workers[w].Served || pm.Workers[w].Busy != tm.Workers[w].Busy {
			return st, fmt.Errorf("worker %d pool served=%d busy=%g, server served=%d busy=%g",
				w, pm.Workers[w].Served, pm.Workers[w].Busy, tm.Workers[w].Served, tm.Workers[w].Busy)
		}
	}
	if sv != nil {
		if len(fm.Swaps) != 0 || fm.Generation != 0 || sv.Live().Current().ID != 0 {
			return st, fmt.Errorf("never-detect supervisor swapped: %d swaps, generation %d", len(fm.Swaps), fm.Generation)
		}
	}
	st.queueSheds = tm.QueueSheds > 0
	st.splits = tm.SplitServed > 0
	return st, nil
}

// The property: 400 seeded random configurations, each compared with a
// static model and with a never-detecting supervised model.
func TestFleetEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20240601))
	const cases = 400
	var withQueueSheds, withSplits int
	for i := 0; i < cases; i++ {
		c, err := randomOneModelCase(rng)
		if err != nil {
			t.Fatal(err)
		}
		st, err := compareOneModel(c, false, false)
		if err != nil {
			t.Fatalf("case %d (%s): %v", i, c, err)
		}
		if _, err := compareOneModel(c, true, false); err != nil {
			t.Fatalf("case %d (%s), supervised: %v", i, c, err)
		}
		if st.queueSheds {
			withQueueSheds++
		}
		if st.splits {
			withSplits++
		}
	}
	// The property only means something if both degradation paths ran.
	if withQueueSheds == 0 || withSplits == 0 {
		t.Fatalf("%d configs shed on a full queue and %d split; the space must exercise both", withQueueSheds, withSplits)
	}
	t.Logf("%d/%d configs agree bit for bit (%d with queue sheds, %d with splits)", cases, cases, withQueueSheds, withSplits)
}

// FuzzOneModelPoolMatchesServer decodes a configuration and a stream from
// the fuzz input — 3 bytes per request (inter-arrival, size, own deadline),
// capped at 128 requests — and demands the same bit-for-bit agreement.
func FuzzOneModelPoolMatchesServer(f *testing.F) {
	f.Add(uint8(1), uint8(2), uint8(0), uint16(500), uint8(2), []byte{1, 60, 0, 1, 250, 1, 2, 40, 3, 0, 200, 0, 5, 255, 2})
	f.Add(uint8(3), uint8(0), uint8(2), uint16(0), uint8(0), []byte{0, 10, 0, 0, 20, 0, 0, 30, 0, 9, 40, 1})
	f.Add(uint8(2), uint8(8), uint8(1), uint16(2000), uint8(3), []byte{4, 255, 3, 4, 128, 0, 0, 255, 1, 30, 16, 2})
	f.Fuzz(func(t *testing.T, workers, depth, policy uint8, deadlineUS uint16, splitCap uint8, data []byte) {
		c := oneModelCase{
			q: trace.QueuePolicy{
				Workers:    1 + int(workers%4),
				QueueDepth: int(depth % 9),
				Deadline:   float64(deadlineUS) * 1e-6,
				Policy:     trace.DegradePolicy(policy % 3),
				SplitCap:   []int{0, 128, 256, 512}[splitCap%4],
			},
			perSample: 1e-6,
		}
		now := 0.0
		for i := 0; i+3 <= len(data) && len(c.reqs) < 128; i += 3 {
			now += float64(data[i]) * 2e-5
			r := trace.Request{Arrival: now, Size: 16 + 4*int(data[i+1])}
			if d := data[i+2] % 4; d > 0 {
				r.Deadline = float64(d) * 1e-3
			}
			c.reqs = append(c.reqs, r)
		}
		if len(c.reqs) == 0 {
			return
		}
		if _, err := compareOneModel(c, false, false); err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		if _, err := compareOneModel(c, true, false); err != nil {
			t.Fatalf("%s, supervised: %v", c, err)
		}
	})
}

// denseStream emits n requests with sub-service inter-arrival gaps so the
// two-worker system is backlogged from the start; sizes cycle through a
// deterministic mix, with every seventh request a long-tail batch.
func denseStream(n int, withTails bool) []trace.Request {
	var reqs []trace.Request
	for i := 0; i < n; i++ {
		size := 64 + (i%5)*32
		if withTails && i%7 == 3 {
			size = 700
		}
		reqs = append(reqs, trace.Request{Arrival: float64(i) * 0.01, Size: size})
	}
	return reqs
}

// fleetTraceEquivalence pins one hand-built case through the property's
// comparison.
func fleetTraceEquivalence(t *testing.T, q trace.QueuePolicy, reqs []trace.Request, preempt bool) {
	t.Helper()
	c := oneModelCase{q: q, reqs: reqs, perSample: 1e-3}
	if _, err := compareOneModel(c, false, preempt); err != nil {
		t.Fatalf("%s: %v", c, err)
	}
}

func TestFleetEquivalenceBoundedQueue(t *testing.T) {
	fleetTraceEquivalence(t,
		trace.QueuePolicy{Workers: 2, QueueDepth: 6, Policy: trace.DegradeServe},
		denseStream(48, false), false)
}

func TestFleetEquivalenceDeadlineShed(t *testing.T) {
	fleetTraceEquivalence(t,
		trace.QueuePolicy{Workers: 2, Deadline: 0.4, Policy: trace.DegradeShed},
		denseStream(48, false), false)
}

func TestFleetEquivalenceSplitTail(t *testing.T) {
	fleetTraceEquivalence(t,
		trace.QueuePolicy{Workers: 2, Deadline: 1.0, Policy: trace.DegradeSplitTail, SplitCap: 256},
		denseStream(48, true), false)
}

// Preemption armed but never triggered: with one tenant there is never a
// strictly higher-priority whole request, so the preemption gate cannot fire
// and the split-heavy replay must stay bit-identical to the single-model
// engine — the zero-cost-when-unused contract of Config.Preempt.
func TestFleetEquivalenceSplitTailPreemptArmed(t *testing.T) {
	fleetTraceEquivalence(t,
		trace.QueuePolicy{Workers: 2, Deadline: 1.0, Policy: trace.DegradeSplitTail, SplitCap: 256},
		denseStream(48, true), true)
}
