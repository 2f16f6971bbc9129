package core

import (
	"fmt"
	"math"

	"repro/internal/embedding"
	"repro/internal/fleet"
	"repro/internal/trace"
	"repro/internal/tuner"
)

// ContinuousOptions shapes RecFlex.ServeContinuous.
type ContinuousOptions struct {
	// Supervisor shapes the drift control: window, check cadence, tune
	// duration, cooldown — and the canary guard
	// (CanaryWindow / CanaryDuration for the window length, RollbackMargin
	// for the tolerated degradation). With the guard enabled every hot-swap
	// is a revocable promotion: a re-tune the canary measures worse than the
	// outgoing generation is rolled back and the instance that was live
	// before the swap stays authoritative.
	Supervisor trace.SupervisorConfig
	// Quantum quantizes request sizes for measurement (see MeasuredService).
	Quantum int
	// PhaseOf collapses virtual time onto drift phases for measurement
	// memoization; nil means time-invariant.
	PhaseOf func(t float64) float64
	// Tune configures each background re-tune's schedule search. Setting
	// Tune.Memo to a shared tuner.NewMemo() carries simulation results
	// across generations (and across models, when several serving loops
	// share one cache): a re-tune after a partial drift re-simulates only
	// what actually changed.
	Tune tuner.Options
	// RetuneBatches caps the distinct window batches a re-tune samples
	// (most recent first); 0 means 4.
	RetuneBatches int
	// WarmStart seeds every background re-tune with the outgoing
	// generation's tuning result (tuner.Options.Warm): the incumbent's
	// candidate choices are protected from pruning and its occupancy is
	// measured first so worse occupancies can be abandoned early. The
	// selected schedule set is unchanged — warm-starting only cuts the
	// re-tune's wall time (see trace.Metrics.TuneWall).
	WarmStart bool
}

// retuneBatchCap returns the effective cap on re-tune history batches.
func (o *ContinuousOptions) retuneBatchCap() int {
	if o.RetuneBatches == 0 {
		return 4
	}
	return o.RetuneBatches
}

// windowBatches materializes the batches behind a supervisor window:
// deduplicated by (drift phase, quantized size), newest first, capped at
// limit (0 = no cap). Deduplication matters because MeasuredService memoizes
// on exactly that key — distinct keys are the distinct batches the window saw.
func (o *ContinuousOptions) windowBatches(src TimedBatchSource, win []trace.WindowEntry, limit int) ([]*embedding.Batch, error) {
	type key struct {
		phase float64
		size  int
	}
	seen := make(map[key]bool)
	var out []*embedding.Batch
	for i := len(win) - 1; i >= 0; i-- {
		size := quantize(win[i].Size, o.Quantum)
		k := key{size: size}
		if o.PhaseOf != nil {
			k.phase = o.PhaseOf(win[i].Time)
		}
		if seen[k] {
			continue
		}
		seen[k] = true
		b, err := src(win[i].Time, size)
		if err != nil {
			return nil, fmt.Errorf("core: window batch for size %d at t=%g: %w", size, win[i].Time, err)
		}
		out = append(out, b)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: empty supervisor window")
	}
	return out, nil
}

// ServeFrozen replays the same serving loop with drift control disabled:
// every request is served by this instance's current schedule set, whatever
// the workload does. It is the stale-schedule baseline a ServeContinuous run
// is compared against — same engine, same trace, same virtual clock, only
// the schedules differ.
func (r *RecFlex) ServeFrozen(reqs []trace.Request, src TimedBatchSource, q trace.QueuePolicy, opts ContinuousOptions) (*fleet.Report, error) {
	return serveOne(q, FleetModel{Name: "model", Rec: r, Source: src, Opts: opts, Frozen: true}, reqs)
}

// PostSwapSplit compares a supervised run against its frozen baseline on the
// post-swap slice: the mean served sojourn over requests admitted on a
// re-tuned generation (fresh.Generations[i] > 0), and over the exact same
// request indices of the stale run. n is the number of requests compared; it
// is 0 when the supervised run never swapped (or every post-swap request was
// shed in either run), in which case both means are NaN.
func PostSwapSplit(fresh, stale *trace.Report) (freshMean, staleMean float64, n int) {
	var fs, ss float64
	for i, g := range fresh.Generations {
		if g == 0 || i >= len(stale.Sojourn) ||
			math.IsNaN(fresh.Sojourn[i]) || math.IsNaN(stale.Sojourn[i]) {
			continue
		}
		fs += fresh.Sojourn[i]
		ss += stale.Sojourn[i]
		n++
	}
	if n == 0 {
		return math.NaN(), math.NaN(), 0
	}
	return fs / float64(n), ss / float64(n), n
}

// ServeContinuous runs the full continuous serving loop on this instance:
// the request stream is replayed through a one-model pool (q shapes its
// workers, queue bound, deadlines and degradation) whose drift control is a
// trace.Supervisor — the detector is ShouldRetune over the sliding window's
// batches, and the retuner runs the two-stage schedule search on the recent
// window, compiling a fresh schedule set that is hot-swapped into the loop
// while serving continues on the remaining workers. Each generation is an
// independent immutable instance, so in-flight requests finish on the
// schedules they were admitted under; when the run ends the receiver adopts
// the final generation's tuning (the production hot-swap's last commit).
//
// With the canary guard on (Supervisor.CanaryWindow / CanaryDuration), each
// promotion is provisional: a re-tune the canary measures worse than the
// pre-swap baseline by more than Supervisor.RollbackMargin is rolled back,
// the previously live instance is reinstated for drift detection and final
// adoption, and the verdict lands in the model report's Metrics (Rollbacks,
// SwapEvent.Rollback/CanaryMean).
//
// The report's ModelReports[0] is the single-model view (per-request
// sojourns, outcomes and generation stamps in the caller's order, the swap
// history); per-worker accounting lives in its pool-wide Metrics. The
// instance must be tuned; determinism of the trace, the drift source and
// the tuner makes the whole run reproducible for a fixed seed.
func (r *RecFlex) ServeContinuous(reqs []trace.Request, src TimedBatchSource, q trace.QueuePolicy, opts ContinuousOptions) (*fleet.Report, error) {
	return serveOne(q, FleetModel{Name: "model", Rec: r, Source: src, Opts: opts}, reqs)
}

// serveOne replays a single-model stream, in the caller's order, through
// ServeFleet on a one-model, one-tenant FIFO pool.
func serveOne(q trace.QueuePolicy, m FleetModel, reqs []trace.Request) (*fleet.Report, error) {
	freqs := make([]fleet.Request, len(reqs))
	for i, r := range reqs {
		freqs[i] = fleet.Request{Arrival: r.Arrival, Size: r.Size, Deadline: r.Deadline}
	}
	res, err := ServeFleet(fleet.Config{Queue: q, Admission: fleet.FIFO{}},
		[]FleetModel{m}, []fleet.TenantSpec{{Name: "all"}}, freqs)
	if err != nil {
		return nil, err
	}
	return res.Report, nil
}

// continuousSupervisor builds the continuous-serving supervisor over this
// instance — drift detection via ShouldRetune on the window's batches,
// background re-tunes via the two-stage schedule search, canary rollbacks
// reinstating the right instance — together with the commit closure that
// adopts the final live generation's tuning into the receiver. The caller
// serves the supervisor on a fleet pool (BuildFleetPool) and calls commit
// after a successful run.
func (r *RecFlex) continuousSupervisor(src TimedBatchSource, opts ContinuousOptions) (*trace.Supervisor, func(), error) {
	if r.Tuned() == nil {
		return nil, nil, errNotTuned
	}
	// cur tracks the live generation's instance: the drift detector compares
	// the window against the most recently installed tuning profile, not the
	// original one, so one shift triggers one re-tune rather than an endless
	// train of them. instances maps generation ids to their tuned instances
	// so a canary rollback can reinstate the right one — the rollback
	// generation reuses the reinstated instance, matching the supervisor's
	// service reuse.
	cur := r
	instances := map[int]*RecFlex{0: r}
	detect := func(win []trace.WindowEntry) (bool, error) {
		batches, err := opts.windowBatches(src, win, 0)
		if err != nil {
			return false, err
		}
		return cur.ShouldRetune(batches)
	}
	retune := func(gen int, win []trace.WindowEntry) (trace.TimedServiceFunc, error) {
		batches, err := opts.windowBatches(src, win, opts.retuneBatchCap())
		if err != nil {
			return nil, err
		}
		topts := opts.Tune
		if opts.WarmStart {
			// Seed the search with the generation being replaced — cur, not
			// r: after a swap (or rollback) the incumbent is whatever is
			// live now, and its choices are what the next tune must beat.
			topts.Warm = tuner.WarmFrom(cur.Tuned())
		}
		fresh := &RecFlex{dev: r.dev, model: r.model}
		if err := fresh.Tune(batches, topts); err != nil {
			return nil, fmt.Errorf("core: background tune for generation %d: %w", gen, err)
		}
		cur = fresh
		instances[gen] = fresh
		return fresh.TimedService(src, opts.Quantum, opts.PhaseOf), nil
	}
	sv, err := trace.NewSupervisor(opts.Supervisor, r.TimedService(src, opts.Quantum, opts.PhaseOf), detect, retune)
	if err != nil {
		return nil, nil, err
	}
	sv.OnRollback(func(rollbackGen, reinstated int) {
		// The canary reverted the latest promotion: serving is back on the
		// reinstated generation's schedules, so that instance is what the
		// drift detector must compare against and what the receiver adopts
		// if the run ends here.
		cur = instances[reinstated]
		instances[rollbackGen] = cur
	})
	commit := func() {
		if cur != r {
			r.adoptFrom(cur)
		}
	}
	return sv, commit, nil
}
