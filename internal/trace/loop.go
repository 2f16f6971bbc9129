package trace

import (
	"fmt"
	"math"
	"time"
)

// wallNow is the wall-clock read behind SwapEvent.TuneWall — the *host* cost
// of a background re-tune, measurement-only by contract. It must never feed
// anything a deterministic replay pins: not virtual time, not the session
// log, not Metrics.String (TuneWall is excluded there). The seam exists so
// replay-purity tests can substitute a fake clock and prove the engine's
// virtual-time outputs do not depend on it.
var wallNow = time.Now

// Occupier books background (non-serving) work on a replay loop's worker
// capacity: Occupy charges dur seconds starting no earlier than virtual time
// now on some worker slot and returns the chosen slot and the booked
// interval. The fleet pool implements it per model over that model's placed
// workers.
type Occupier interface {
	Occupy(now, dur float64) (worker int, start, end float64)
}

// LoopControl is one supervised model's continuous-serving control state,
// driven per admission by a replay loop: the sliding window, drift-check
// pacing, background-tune booking, hot-swap application, canary evaluation
// and rollback. The fleet pool drives one per supervised model in its
// shared-pool replay, which is how each model keeps its
// drift-detect/hot-swap/canary semantics while sharing capacity with other
// models; single-model serving is a one-model pool.
//
// A LoopControl holds its supervisor's run lock from BeginRun until Finalize
// or Abort, preserving the monotone-generation guarantee on the shared
// LiveSet; it is not safe for concurrent use within one run (replay loops
// are single-threaded over virtual time by construction).
type LoopControl struct {
	sv *Supervisor

	// Generation history: in-flight entries resolve against the generation
	// stamped at their admission even after later swaps. compl parallels
	// gens with each generation's served completions — the raw material of
	// canary verdicts.
	gens  []TimedServiceFunc
	compl [][]completion
	cur   int

	// A tune in flight, waiting for its completion time to pass.
	pendingSvc TimedServiceFunc
	pendingAt  float64

	swaps     []SwapEvent
	canary    *canaryRun
	retunes   int
	rollbacks int
	tuneWall  float64

	window        []WindowEntry
	winFull       bool
	sinceCheck    int
	cooldownUntil float64

	done bool
}

// BeginRun acquires the supervisor's run lock and returns a fresh control
// for one replay. The caller must drive every admission through Admit, every
// dispatch through Resolve, every served completion through Observe, and
// must end the run with exactly one Finalize (success) or Abort (error) —
// both release the run lock.
func (sv *Supervisor) BeginRun() *LoopControl {
	sv.runMu.Lock()
	return &LoopControl{
		sv:            sv,
		gens:          []TimedServiceFunc{sv.service},
		compl:         [][]completion{nil},
		window:        make([]WindowEntry, 0, sv.cfg.window()),
		cooldownUntil: math.Inf(-1),
	}
}

// Admit observes one arrival of the given size at virtual time now — in
// arrival order, before any queue placement or shedding — and returns the
// schedule-set generation to stamp on it. It applies a completed background
// tune (the hot-swap), evaluates an open canary window (possibly rolling the
// promotion back), slides the drift window, and may launch a background
// re-tune booked on oc's capacity.
func (lc *LoopControl) Admit(oc Occupier, size int, now float64) (int, error) {
	sv := lc.sv
	// Apply a completed background tune: the swap is live for this and
	// every later admission, and — with the guard on — opens a canary
	// window against the outgoing generation's recent completions.
	if lc.pendingSvc != nil && now >= lc.pendingAt {
		prev := lc.cur
		lc.gens = append(lc.gens, lc.pendingSvc)
		lc.compl = append(lc.compl, nil)
		lc.cur = len(lc.gens) - 1
		sv.live.Swap(lc.pendingSvc, lc.pendingAt)
		if sv.cfg.canaryEnabled() {
			lc.canary = &canaryRun{
				swapIdx:  len(lc.swaps) - 1,
				gen:      lc.cur,
				prev:     prev,
				openedAt: lc.pendingAt,
				baseline: canaryBaseline(lc.compl[prev], lc.pendingAt, sv.cfg.CanaryWindow, sv.cfg.CanaryDuration),
			}
		}
		lc.pendingSvc = nil
	}

	// Evaluate an open canary: the window closes once enough of the new
	// generation's admissions have completed (or the time cap passes),
	// and a verdict worse than the baseline by more than the margin
	// rolls the promotion back — a forward swap to a fresh generation id
	// reusing the previous service, live from this admission on.
	if lc.canary != nil {
		done := completedBy(lc.compl[lc.canary.gen], now)
		closed := (sv.cfg.CanaryWindow > 0 && len(done) >= sv.cfg.CanaryWindow) ||
			(sv.cfg.CanaryDuration > 0 && now >= lc.canary.openedAt+sv.cfg.CanaryDuration)
		if closed {
			cm, bm, matched := canaryVerdict(lc.canary.baseline, done)
			lc.swaps[lc.canary.swapIdx].CanaryMean = cm
			lc.swaps[lc.canary.swapIdx].BaselineMean = bm
			if matched > 0 && cm > bm*(1+sv.cfg.RollbackMargin) {
				svc := lc.gens[lc.canary.prev]
				lc.gens = append(lc.gens, svc)
				lc.compl = append(lc.compl, nil)
				lc.cur = len(lc.gens) - 1
				sv.live.Swap(svc, now)
				lc.swaps = append(lc.swaps, SwapEvent{
					Generation: lc.cur,
					Rollback:   true,
					Reinstated: lc.canary.prev,
					Detected:   now,
					Start:      now,
					Swapped:    now,
					Worker:     -1,
				})
				lc.rollbacks++
				lc.cooldownUntil = now + sv.cfg.Cooldown
				if sv.onRollback != nil {
					sv.onRollback(lc.cur, lc.canary.prev)
				}
			}
			lc.canary = nil
		}
	}

	// Slide the window and pace the drift checks.
	if len(lc.window) == cap(lc.window) {
		copy(lc.window, lc.window[1:])
		lc.window = lc.window[:len(lc.window)-1]
		lc.winFull = true
	}
	lc.window = append(lc.window, WindowEntry{Time: now, Size: size})
	lc.sinceCheck++

	if lc.pendingSvc == nil && lc.canary == nil && (lc.winFull || len(lc.window) == cap(lc.window)) &&
		lc.sinceCheck >= sv.cfg.checkEvery() && now >= lc.cooldownUntil &&
		(sv.cfg.MaxRetunes == 0 || lc.retunes < sv.cfg.MaxRetunes) {
		lc.sinceCheck = 0
		drifted, err := sv.detect(lc.window)
		if err != nil {
			return 0, fmt.Errorf("trace: drift detector: %w", err)
		}
		if drifted {
			// Launch the background tune on the least-loaded worker:
			// the slot is booked for the tune's duration, so serving
			// capacity drops by one worker until the swap.
			newGen := len(lc.swaps) + 1
			tuneStart := wallNow()
			svc, err := sv.retune(newGen, lc.window)
			tuneWall := wallNow().Sub(tuneStart).Seconds()
			if err != nil {
				return 0, fmt.Errorf("trace: re-tune for generation %d: %w", newGen, err)
			}
			if svc == nil {
				return 0, fmt.Errorf("trace: re-tune for generation %d returned nil service", newGen)
			}
			lc.retunes++
			worker, start, end := oc.Occupy(now, sv.cfg.tuneDuration())
			lc.swaps = append(lc.swaps, SwapEvent{
				Generation:   newGen,
				Detected:     now,
				Start:        start,
				Swapped:      end,
				Worker:       worker,
				TuneDuration: end - start,
				TuneWall:     tuneWall,
			})
			lc.tuneWall += tuneWall
			lc.pendingSvc = svc
			lc.pendingAt = end
			lc.cooldownUntil = end + sv.cfg.Cooldown
		}
	}
	return lc.cur, nil
}

// Resolve returns the service time of a request of the given size that
// arrived at the given virtual time, under the generation it was admitted
// on — in-flight requests keep the schedule set they arrived under across a
// hot-swap.
func (lc *LoopControl) Resolve(gen int, arrival float64, size int) (float64, error) {
	if gen < 0 || gen >= len(lc.gens) {
		return 0, fmt.Errorf("trace: request resolved against unknown generation %d (have %d)", gen, len(lc.gens))
	}
	return lc.gens[gen](arrival, size)
}

// Observe records one served completion for canary evaluation: the request's
// size, the generation it was admitted on, its completion time and sojourn.
func (lc *LoopControl) Observe(size, gen int, end, sojourn float64) {
	lc.compl[gen] = append(lc.compl[gen], completion{size: size, end: end, sojourn: sojourn})
}

// Finalize ends the run: a tune still pending when the trace ended is
// published (its swap went live at its completion time — serving just ended
// first), the pre/post-swap latency split is computed over rep's generation
// stamps and served sojourns, the swap history lands in rep.Metrics, the
// metrics snapshot is installed on the supervisor, and the run lock is
// released.
func (lc *LoopControl) Finalize(rep *Report) {
	if lc.done {
		return
	}
	lc.done = true
	sv := lc.sv
	defer sv.runMu.Unlock()

	if lc.pendingSvc != nil {
		sv.live.Swap(lc.pendingSvc, lc.pendingAt)
		lc.pendingSvc = nil
	}

	// Pre/post-swap latency split: mean served sojourn per generation.
	sums := make([]float64, len(lc.swaps)+1)
	counts := make([]int, len(lc.swaps)+1)
	for i, g := range rep.Generations {
		if !math.IsNaN(rep.Sojourn[i]) {
			sums[g] += rep.Sojourn[i]
			counts[g]++
		}
	}
	meanOf := func(g int) float64 {
		if g < 0 || g >= len(counts) || counts[g] == 0 {
			return math.NaN()
		}
		return sums[g] / float64(counts[g])
	}
	for i := range lc.swaps {
		lc.swaps[i].PreMean = meanOf(lc.swaps[i].Generation - 1)
		lc.swaps[i].PostMean = meanOf(lc.swaps[i].Generation)
	}

	met := rep.Metrics
	met.Generation = len(lc.swaps)
	met.Swaps = lc.swaps
	met.Rollbacks = lc.rollbacks
	met.TuneWall = lc.tuneWall

	sv.mu.Lock()
	sv.last = met
	sv.mu.Unlock()
}

// Abort releases the run lock without publishing anything — the error path's
// counterpart to Finalize.
func (lc *LoopControl) Abort() {
	if lc.done {
		return
	}
	lc.done = true
	lc.sv.runMu.Unlock()
}
