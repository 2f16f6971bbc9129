package core_test

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datasynth"
	"repro/internal/embedding"
	"repro/internal/fleet"
	"repro/internal/trace"
)

// countingSource wraps a batch source and records every size it is asked
// for: each call is one inner measurement the service memo did not absorb.
type countingSource struct {
	inner core.TimedBatchSource
	gate  chan struct{} // when set, every call waits for it to close

	mu    sync.Mutex
	sizes []int
}

func (c *countingSource) source(t float64, size int) (*embedding.Batch, error) {
	c.mu.Lock()
	c.sizes = append(c.sizes, size)
	c.mu.Unlock()
	if c.gate != nil {
		<-c.gate
	}
	return c.inner(t, size)
}

func (c *countingSource) calls() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.sizes...)
}

func steadySource(cfg *datasynth.ModelConfig) core.TimedBatchSource {
	return func(_ float64, size int) (*embedding.Batch, error) { return datasynth.BatchForSize(cfg, size) }
}

// Sizes 1..64 under quantum 32 are two quantized sizes, so they cost exactly
// two measurements — and every raw size in a bucket gets its bucket's time.
// Under a drift schedule the same sizes cost two measurements per phase.
func TestTimedServiceMeasuresOncePerQuantizedSize(t *testing.T) {
	rf, cfg := tunedInstance(t)
	steady := &countingSource{inner: steadySource(cfg)}
	svc := rf.TimedService(steady.source, 32, nil)
	for size := 1; size <= 64; size++ {
		got, err := svc(0, size)
		if err != nil {
			t.Fatal(err)
		}
		want, err := svc(0, (size+31)/32*32)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("size %d served %g, its quantized size %g", size, got, want)
		}
	}
	if calls := steady.calls(); len(calls) != 2 || calls[0] != 32 || calls[1] != 64 {
		t.Fatalf("sizes 1..64 at quantum 32 measured sizes %v, want [32 64]", calls)
	}

	drift := datasynth.StepDrift(1, 4)
	drifting := &countingSource{inner: func(tt float64, size int) (*embedding.Batch, error) {
		return drift.BatchForSize(cfg, tt, size)
	}}
	svc = rf.TimedService(drifting.source, 32, drift.PhaseStart)
	for _, tt := range []float64{0.5, 1.5} {
		for size := 1; size <= 64; size++ {
			if _, err := svc(tt, size); err != nil {
				t.Fatal(err)
			}
		}
	}
	if calls := drifting.calls(); len(calls) != 4 {
		t.Fatalf("sizes 1..64 over two drift phases measured %v, want 4 measurements", calls)
	}
}

// A frozen model in a fleet pool resolves service times through the same
// quantized memo: serving sizes 1..64 makes two source calls.
func TestFrozenFleetPoolMeasuresOncePerQuantizedSize(t *testing.T) {
	rf, cfg := tunedInstance(t)
	src := &countingSource{inner: steadySource(cfg)}
	pool, _, err := core.BuildFleetPool(fleet.Config{Queue: trace.QueuePolicy{Workers: 2}},
		[]core.FleetModel{{
			Name: "m", Rec: rf, Source: src.source,
			Opts: core.ContinuousOptions{Quantum: 32}, Frozen: true,
		}},
		[]fleet.TenantSpec{{Name: "t"}})
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]fleet.Request, 64)
	for i := range reqs {
		reqs[i] = fleet.Request{Arrival: float64(i) * 1e-3, Size: i + 1}
	}
	rep, err := pool.Serve(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics.Served != len(reqs) {
		t.Fatalf("served %d of %d", rep.Metrics.Served, len(reqs))
	}
	if calls := src.calls(); len(calls) != 2 {
		t.Fatalf("pool serving sizes 1..64 measured sizes %v, want 2 measurements", calls)
	}
}

// Concurrent callers with different raw sizes in one quantum bucket share a
// single in-flight measurement: the memo key is the quantized size, so the
// first caller measures and the rest wait for it. Run with -race.
func TestTimedServiceSingleflightAcrossQuantumBucket(t *testing.T) {
	rf, cfg := tunedInstance(t)
	src := &countingSource{inner: steadySource(cfg), gate: make(chan struct{})}
	svc := rf.TimedService(src.source, 32, nil)
	got := make([]float64, 32)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v, err := svc(0, 33+g) // 33..64 all quantize to 64
			if err != nil {
				t.Error(err)
			}
			got[g] = v
		}(g)
	}
	close(src.gate)
	wg.Wait()
	if calls := src.calls(); len(calls) != 1 || calls[0] != 64 {
		t.Fatalf("32 concurrent callers in one bucket measured sizes %v, want [64]", calls)
	}
	for g, v := range got {
		if v != got[0] || !(v > 0) {
			t.Fatalf("caller %d got %g, caller 0 got %g", g, v, got[0])
		}
	}
}
