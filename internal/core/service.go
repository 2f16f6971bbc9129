package core

import (
	"fmt"

	"repro/internal/embedding"
	"repro/internal/trace"
)

// TimedBatchSource supplies the input batch for a request of the given size
// arriving at virtual time t. Drifting workloads back it with
// datasynth.DriftSchedule.BatchForSize, so the batch a size maps to changes
// at the drift steps; time-invariant callers back it with
// datasynth.BatchForSize and ignore t.
type TimedBatchSource func(t float64, size int) (*embedding.Batch, error)

// quantize rounds a request size up to a multiple of quantum (0 or 1 leaves
// it unchanged): the measurement grid every service time is resolved on.
func quantize(size, quantum int) int {
	if quantum > 1 {
		size = (size + quantum - 1) / quantum * quantum
	}
	return size
}

// MeasuredService is the one way a request size becomes a service time. It
// rounds the size up to quantum, then memoizes on (drift phase, quantized
// size) through trace.MemoTimedService: the first caller of a key fetches
// the batch from src at the quantized size and measures it, concurrent
// callers of the same key wait for that one measurement, and errors are
// memoized too. phaseOf collapses virtual time onto the workload's drift
// phases (datasynth.DriftSchedule.PhaseStart); nil means the workload is
// time-invariant. The returned function is safe for concurrent use.
func MeasuredService(measure func(*embedding.Batch) (float64, error), src TimedBatchSource, quantum int, phaseOf func(float64) float64) trace.TimedServiceFunc {
	memo := trace.MemoTimedService(func(t float64, size int) (float64, error) {
		b, err := src(t, size)
		if err != nil {
			return 0, fmt.Errorf("core: batch for size %d at t=%g: %w", size, t, err)
		}
		return measure(b)
	}, phaseOf)
	return func(t float64, size int) (float64, error) {
		return memo(t, quantize(size, quantum))
	}
}

// TimedService returns the MeasuredService of this instance's tuned fused
// kernel. The returned function binds this instance's schedule set at
// measurement time through r.Measure — so a continuous serving loop builds
// one per generation from that generation's own (immutable after tuning)
// instance, and in-flight requests keep their schedules across a hot-swap.
func (r *RecFlex) TimedService(src TimedBatchSource, quantum int, phaseOf func(float64) float64) trace.TimedServiceFunc {
	return MeasuredService(func(b *embedding.Batch) (float64, error) {
		return r.Measure(r.dev, r.model.Features, b)
	}, src, quantum, phaseOf)
}

// ServeTrace runs a request stream through the concurrent serving engine
// with this instance's fused kernel as the simulated GPU service — the
// serving entry point of the system. The instance must be tuned. quantum
// quantizes request sizes for measurement (see MeasuredService); src is
// asked for batches at t=0 only; cfg shapes the engine (workers, admission
// queue, deadlines, degradation policy).
func (r *RecFlex) ServeTrace(reqs []trace.Request, src TimedBatchSource, quantum int, cfg trace.ServerConfig) (*trace.Report, error) {
	if r.Tuned() == nil {
		return nil, errNotTuned
	}
	svc := r.TimedService(src, quantum, nil)
	srv, err := trace.NewServer(cfg, func(size int) (float64, error) { return svc(0, size) })
	if err != nil {
		return nil, err
	}
	return srv.Serve(reqs)
}
