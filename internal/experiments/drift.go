package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/datasynth"
	"repro/internal/embedding"
	"repro/internal/fleet"
	"repro/internal/gpusim"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/tuner"
)

// DriftResult is the §IV-A3 re-tuning lifecycle study, run end-to-end through
// the continuous serving loop: a drifting request trace (pooling factors
// scale by DriftFactor mid-stream) is replayed on a one-model pool whose
// trace.Supervisor detects the shift online, re-tunes in the background on a worker
// slot, and hot-swaps the fresh schedule set. The same trace replayed with
// the detector pinned off gives the stale-schedule baseline, so the
// latency split compares identical post-drift requests under old vs new
// schedules.
type DriftResult struct {
	DriftFactor float64
	// Detected reports whether the supervisor's drift check fired (at least
	// one swap happened).
	Detected bool
	// Generation is the final schedule-set generation (number of swaps).
	Generation int
	// DetectedAt and SwappedAt are the virtual times of the (first) drift
	// detection and its hot-swap going live.
	DetectedAt, SwappedAt float64
	// TuneBusy is the simulated worker time the background tunes occupied.
	TuneBusy float64
	// StaleLatency is the mean post-swap-window sojourn when the drifted
	// requests are served by the original (stale) schedules.
	StaleLatency float64
	// FreshLatency is the mean sojourn of the same requests under the
	// re-tuned generation.
	FreshLatency float64
	Improvement  float64
	// Guarded-promotion stress: the same drifted trace replayed with a
	// deliberately poisoned re-tune (3x the live generation's service — a
	// tune that overfit a noisy window) behind the canary guard.
	// PoisonRollbacks counts the promotions the canary reverted (1 when the
	// guard caught the poison), PoisonCanaryMean / PoisonBaselineMean record
	// the verdict, RollbackAt the virtual time of the revert, and
	// PostRollbackMean the mean sojourn on the reinstated schedules after it.
	PoisonRollbacks                      int
	PoisonCanaryMean, PoisonBaselineMean float64
	RollbackAt                           float64
	PostRollbackMean                     float64
	// Fleet-speed act: the same drift-detect→hot-swap lifecycle timed under
	// the serial reference tuner and under the fleet-speed engine. The wall
	// times are measured host seconds spent inside the background re-tune
	// (trace.Metrics.TuneWall). The fleet arms keep pruning OFF, so the
	// re-tuned schedule set is bit-identical to the serial reference by the
	// equivalence pin; the speed comes from warm-starting the search from
	// the outgoing generation and from a fleet-shared simulation memo.
	RetuneWallSerial float64
	// RetuneWallWarm is the first fleet replica's re-tune: warm-started from
	// the outgoing generation (occupancies that cannot beat the incumbent
	// abandon early) against a still-cold shared memo.
	RetuneWallWarm float64
	// RetuneWallFleet is the second replica's re-tune over the shared drift
	// profile window: every candidate simulation hits the memo the first
	// replica populated, so the drift-detect→hot-swap wall time collapses.
	// This is the steady-state per-replica cost of rolling a re-tune across
	// a fleet.
	RetuneWallFleet float64
	// RetuneSpeedup is RetuneWallSerial / RetuneWallFleet.
	RetuneSpeedup float64
	// FastScheduleMatch reports whether both fleet re-tunes selected exactly
	// the serial re-tune's schedules and occupancy.
	FastScheduleMatch bool
}

// DriftStudy runs the lifecycle on model C (all multi-hot: every feature
// drifts).
func (s *Suite) DriftStudy() (*DriftResult, error) {
	return memo(s, "drift", s.driftStudy)
}

func (s *Suite) driftStudy() (*DriftResult, error) {
	dev := gpusim.V100()
	cfg := s.ScaledModel(datasynth.ModelC())
	rf, err := s.TunedRecFlex(dev, cfg)
	if err != nil {
		return nil, err
	}

	const factor = 4.0
	const n = 128
	reqs, err := trace.Generate(n, trace.GeneratorConfig{
		QPS:      40,
		MaxBatch: s.Cfg.BatchCap,
		Seed:     cfg.Seed ^ 0xD81F7,
	})
	if err != nil {
		return nil, err
	}
	// The shift lands a third of the way in, so the supervisor tunes up on
	// stable traffic first and has plenty of post-swap trace to measure.
	drift := datasynth.StepDrift(reqs[n/3].Arrival, factor)
	src := func(t float64, size int) (*embedding.Batch, error) {
		return drift.BatchForSize(cfg, t, size)
	}
	q := trace.QueuePolicy{Workers: 2}
	opts := core.ContinuousOptions{
		Supervisor: trace.SupervisorConfig{
			Window:     16,
			CheckEvery: 8,
			MaxRetunes: 1,
		},
		// Coarser quantization than the serving default: the study measures
		// three schedule sets (two generations plus the stale baseline), so
		// fewer distinct (phase, size) keys keep it laptop-fast.
		Quantum:       64,
		PhaseOf:       drift.PhaseStart,
		RetuneBatches: s.Cfg.TuneBatches,
		Tune: tuner.Options{
			Occupancies: s.Cfg.Occupancies,
			Parallelism: s.Cfg.Parallelism,
		},
	}

	// The continuous run re-tunes and adopts the final generation; run it on
	// a clone so the suite's cached instance keeps its original tuning.
	live := rf.Clone()
	pr, err := live.ServeContinuous(reqs, src, q, opts)
	if err != nil {
		return nil, err
	}
	rep := pr.ModelReports[0]

	// Stale baseline: the identical loop with drift control disabled, i.e.
	// every request served by generation 0. Same engine, same trace, same
	// virtual clock — the only difference is the schedules.
	stalePR, err := rf.ServeFrozen(reqs, src, q, opts)
	if err != nil {
		return nil, err
	}
	staleRep := stalePR.ModelReports[0]

	res := &DriftResult{
		DriftFactor: factor,
		Detected:    len(rep.Metrics.Swaps) > 0,
		Generation:  rep.Metrics.Generation,
		TuneBusy:    rep.Metrics.TuneBusy,
	}
	if !res.Detected {
		return res, nil
	}
	res.DetectedAt = rep.Metrics.Swaps[0].Detected
	res.SwappedAt = rep.Metrics.Swaps[0].Swapped

	// Post-swap latency split over the exact same request indices.
	freshMean, staleMean, count := core.PostSwapSplit(rep, staleRep)
	if count == 0 {
		return nil, fmt.Errorf("experiments: drift study swapped at t=%g but served no post-swap requests", res.SwappedAt)
	}
	res.FreshLatency = freshMean
	res.StaleLatency = staleMean
	res.Improvement = res.StaleLatency / res.FreshLatency

	// Fleet-speed act: time the drift-detect→hot-swap path — the wall time
	// the background re-tune actually takes — under the serial reference
	// tuner and under the fleet-speed engine. Same trace, same drift, same
	// supervisor; only the tuner engine differs. The serial arm replays the
	// lifecycle with Options.Serial pinning the pre-fleet-speed reference.
	// The fleet arm models two replicas of the model hitting the same drift
	// and re-tuning from the shared drift profile window: both warm-start
	// from the outgoing generation, keep pruning OFF (so the schedule set is
	// bit-identical to the serial arm by construction), and share one
	// simulation memo. The first replica pays for the simulations once; the
	// second replica's re-tune — the fleet steady state — runs almost
	// entirely out of the memo.
	serialOpts := opts
	serialOpts.Tune.Serial = true
	serialLive := rf.Clone()
	serialRep, err := serialLive.ServeContinuous(reqs, src, q, serialOpts)
	if err != nil {
		return nil, err
	}
	res.RetuneWallSerial = serialRep.ModelReports[0].Metrics.TuneWall

	fleetOpts := opts
	fleetOpts.WarmStart = true
	fleetOpts.Tune.Memo = tuner.NewMemo()
	warmLive := rf.Clone()
	warmRep, err := warmLive.ServeContinuous(reqs, src, q, fleetOpts)
	if err != nil {
		return nil, err
	}
	res.RetuneWallWarm = warmRep.ModelReports[0].Metrics.TuneWall

	fleetLive := rf.Clone()
	fleetRep, err := fleetLive.ServeContinuous(reqs, src, q, fleetOpts)
	if err != nil {
		return nil, err
	}
	res.RetuneWallFleet = fleetRep.ModelReports[0].Metrics.TuneWall
	if res.RetuneWallFleet > 0 {
		res.RetuneSpeedup = res.RetuneWallSerial / res.RetuneWallFleet
	}
	res.FastScheduleMatch = sameTuning(serialLive, warmLive) && sameTuning(serialLive, fleetLive)

	// Guarded-promotion stress: replay the same trace, but make the re-tune
	// poisoned — 3x slower than the live schedules, the worst case of a tune
	// overfitting a noisy drift window. The canary guard must measure the
	// promotion worse than the pre-swap baseline and roll it back. This act
	// serves its own supervisor on a one-model pool: the poison is injected
	// at the service layer, below core's real tuner.
	base := rf.TimedService(src, opts.Quantum, opts.PhaseOf)
	driftAt := reqs[n/3].Arrival
	detect := func(win []trace.WindowEntry) (bool, error) {
		return win[len(win)-1].Time >= driftAt, nil
	}
	poisoned := func(int, []trace.WindowEntry) (trace.TimedServiceFunc, error) {
		return func(t float64, size int) (float64, error) {
			sv, err := base(t, size)
			return sv * 3, err
		}, nil
	}
	pcfg := opts.Supervisor
	pcfg.CanaryWindow = 8
	pcfg.RollbackMargin = 0.25
	pcfg.MaxRetunes = 1
	guard, err := trace.NewSupervisor(pcfg, base, detect, poisoned)
	if err != nil {
		return nil, err
	}
	pool, err := fleet.NewPool(fleet.Config{Queue: q, Admission: fleet.FIFO{}},
		[]fleet.Model{{Name: "C", Supervisor: guard}}, []fleet.TenantSpec{{Name: "all"}})
	if err != nil {
		return nil, err
	}
	pfr, err := pool.Serve(fleet.Merge(fleet.Stream{Reqs: reqs}))
	if err != nil {
		return nil, err
	}
	prep := pfr.ModelReports[0]
	pm := prep.Metrics
	res.PoisonRollbacks = pm.Rollbacks
	for _, s := range pm.Swaps {
		if s.Rollback {
			res.RollbackAt = s.Swapped
			// Mean sojourn on the reinstated generation's traffic.
			var sum float64
			var cnt int
			for i, g := range prep.Generations {
				if g == s.Generation && !math.IsNaN(prep.Sojourn[i]) {
					sum += prep.Sojourn[i]
					cnt++
				}
			}
			if cnt > 0 {
				res.PostRollbackMean = sum / float64(cnt)
			}
		} else {
			res.PoisonCanaryMean = s.CanaryMean
			res.PoisonBaselineMean = s.BaselineMean
		}
	}
	return res, nil
}

// sameTuning reports whether two instances adopted the same schedule set:
// identical winning occupancy and per-feature schedule choices.
func sameTuning(a, b *core.RecFlex) bool {
	ta, tb := a.Tuned(), b.Tuned()
	if ta == nil || tb == nil || ta.Occupancy != tb.Occupancy || len(ta.Choices) != len(tb.Choices) {
		return false
	}
	for f := range ta.Choices {
		if ta.Choices[f].Name() != tb.Choices[f].Name() {
			return false
		}
	}
	return true
}

// PrintDriftStudy renders the lifecycle study.
func (s *Suite) PrintDriftStudy(w io.Writer) error {
	res, err := s.DriftStudy()
	if err != nil {
		return err
	}
	if !res.Detected {
		_, err = fmt.Fprintf(w, "\n== Re-tuning lifecycle (§IV-A3, model C, pooling factors x%.0f) ==\ndrift not detected; schedules kept\n", res.DriftFactor)
		return err
	}
	if _, err = fmt.Fprintf(w, "\n== Re-tuning lifecycle (§IV-A3, model C, pooling factors x%.0f) ==\ndrift detected at t=%s, re-tuned in background (%s busy), hot-swapped at t=%s (generation %d)\npost-swap: stale schedules %s vs re-tuned %s -> hot-swap recovers %s\n",
		res.DriftFactor,
		report.FmtUS(res.DetectedAt), report.FmtUS(res.TuneBusy), report.FmtUS(res.SwappedAt), res.Generation,
		report.FmtUS(res.StaleLatency), report.FmtUS(res.FreshLatency),
		report.FmtRatio(res.Improvement)); err != nil {
		return err
	}
	match := "schedules unchanged"
	if !res.FastScheduleMatch {
		match = "schedules differ"
	}
	if _, err = fmt.Fprintf(w, "fleet-speed re-tune: serial %.0fms, warm-start %.0fms, fleet-shared memo %.0fms (%.1fx faster, %s)\n",
		res.RetuneWallSerial*1e3, res.RetuneWallWarm*1e3, res.RetuneWallFleet*1e3, res.RetuneSpeedup, match); err != nil {
		return err
	}
	if res.PoisonRollbacks > 0 {
		_, err = fmt.Fprintf(w, "poisoned re-tune: canary measured %s vs baseline %s -> rolled back at t=%s, post-rollback %s (%d rollback)\n",
			report.FmtUS(res.PoisonCanaryMean), report.FmtUS(res.PoisonBaselineMean),
			report.FmtUS(res.RollbackAt), report.FmtUS(res.PostRollbackMean), res.PoisonRollbacks)
	} else {
		_, err = fmt.Fprintf(w, "poisoned re-tune: canary did not roll back (canary %s vs baseline %s)\n",
			report.FmtUS(res.PoisonCanaryMean), report.FmtUS(res.PoisonBaselineMean))
	}
	return err
}
