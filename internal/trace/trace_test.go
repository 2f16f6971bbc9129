// External test package: internal/core imports trace for its serving entry
// point, so these tests (which drive a tuned core.RecFlex through the trace
// layer) must live outside package trace to avoid an import cycle.
package trace_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/datasynth"
	"repro/internal/embedding"
	"repro/internal/experiments"
	"repro/internal/gpusim"
	"repro/internal/trace"
	"repro/internal/tuner"
)

func TestGenerateShape(t *testing.T) {
	cfg := trace.GeneratorConfig{QPS: 100, MaxBatch: 512, TailProb: 0.05, TailSize: 2560, Seed: 1}
	reqs, err := trace.Generate(5000, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 5000 {
		t.Fatalf("%d requests", len(reqs))
	}
	tails := 0
	prev := 0.0
	for i, r := range reqs {
		if r.Arrival < prev {
			t.Fatalf("arrivals not monotone at %d", i)
		}
		prev = r.Arrival
		if r.Size == 2560 {
			tails++
		} else if r.Size < 16 || r.Size > 512 {
			t.Fatalf("request %d size %d outside [16,512]", i, r.Size)
		}
	}
	// Empirical arrival rate ~ QPS.
	rate := float64(len(reqs)) / reqs[len(reqs)-1].Arrival
	if math.Abs(rate-100)/100 > 0.1 {
		t.Errorf("empirical rate %.1f, want ~100", rate)
	}
	// Tail probability ~ 5%.
	frac := float64(tails) / float64(len(reqs))
	if math.Abs(frac-0.05) > 0.02 {
		t.Errorf("tail fraction %.3f, want ~0.05", frac)
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	bad := []trace.GeneratorConfig{
		{QPS: 0, MaxBatch: 512},
		{QPS: 10, MaxBatch: 0},
		{QPS: 10, MaxBatch: 512, TailProb: 2},
		{QPS: 10, MaxBatch: 512, TailProb: 0.1, TailSize: 0},
		// MaxBatch below the generator's MinBatch floor cannot be honored
		// (the floor used to silently override the cap).
		{QPS: 10, MaxBatch: trace.MinBatch - 1},
	}
	for i, cfg := range bad {
		if _, err := trace.Generate(10, cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, err := trace.Generate(0, trace.GeneratorConfig{QPS: 10, MaxBatch: 512}); err == nil {
		t.Error("n=0 accepted")
	}
}

// A MaxBatch at the floor must be honored exactly: every request is clamped
// to precisely MinBatch, not left above the cap.
func TestGenerateHonorsMaxBatchAtFloor(t *testing.T) {
	reqs, err := trace.Generate(500, trace.GeneratorConfig{QPS: 100, MaxBatch: trace.MinBatch, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reqs {
		if r.Size != trace.MinBatch {
			t.Fatalf("request %d size %d, want exactly %d", i, r.Size, trace.MinBatch)
		}
	}
}

func TestServeQueueingMath(t *testing.T) {
	// Two requests, fixed 1s service, back-to-back arrivals: the second
	// waits for the first.
	reqs := []trace.Request{{Arrival: 0, Size: 1}, {Arrival: 0.5, Size: 1}}
	res, err := trace.Serve(reqs, func(int) (float64, error) { return 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Sojourn[0]-1) > 1e-12 {
		t.Errorf("first sojourn %g, want 1", res.Sojourn[0])
	}
	if math.Abs(res.Sojourn[1]-1.5) > 1e-12 {
		t.Errorf("second sojourn %g, want 1.5 (0.5 queueing + 1 service)", res.Sojourn[1])
	}
	if math.Abs(res.Utilization-1) > 1e-12 {
		t.Errorf("utilization %g, want 1 (no idle)", res.Utilization)
	}
	if res.MeanService != 1 {
		t.Errorf("mean service %g", res.MeanService)
	}
}

// Out-of-order input must be served in arrival order (no negative queueing
// math), without mutating the caller's slice, and with sojourns reported at
// the caller's indices.
func TestServeUnsortedInput(t *testing.T) {
	sorted, err := trace.Generate(200, trace.GeneratorConfig{QPS: 800, MaxBatch: 512, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	service := func(size int) (float64, error) { return float64(size) * 2e-5, nil }
	want, err := trace.Serve(sorted, service)
	if err != nil {
		t.Fatal(err)
	}

	shuffled := append([]trace.Request(nil), sorted...)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	backup := append([]trace.Request(nil), shuffled...)
	got, err := trace.Serve(shuffled, service)
	if err != nil {
		t.Fatal(err)
	}
	for i := range shuffled {
		if shuffled[i] != backup[i] {
			t.Fatal("Serve mutated its input slice")
		}
	}
	// Same request (identified by arrival; arrivals are distinct almost
	// surely) must see the same sojourn regardless of input order.
	byArrival := make(map[float64]float64, len(sorted))
	for i, r := range sorted {
		byArrival[r.Arrival] = want.Sojourn[i]
	}
	for i, r := range shuffled {
		if w := byArrival[r.Arrival]; math.Abs(got.Sojourn[i]-w) > 1e-15 {
			t.Fatalf("request at %g: sojourn %g via shuffled input, want %g", r.Arrival, got.Sojourn[i], w)
		}
		if got.Sojourn[i] < 0 {
			t.Fatalf("negative sojourn %g at %d", got.Sojourn[i], i)
		}
	}
	if math.Abs(got.P99-want.P99) > 1e-15 {
		t.Errorf("p99 differs: %g vs %g", got.P99, want.P99)
	}

	multi, err := trace.ServeMultiGPU(shuffled, 2, service)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range multi.Sojourn {
		if v < 0 {
			t.Fatalf("ServeMultiGPU negative sojourn %g at %d", v, i)
		}
	}
}

func TestServeErrors(t *testing.T) {
	if _, err := trace.Serve(nil, func(int) (float64, error) { return 1, nil }); err == nil {
		t.Error("empty stream accepted")
	}
	reqs := []trace.Request{{Arrival: 0, Size: 1}}
	if _, err := trace.Serve(reqs, func(int) (float64, error) { return -1, nil }); err == nil {
		t.Error("negative service accepted")
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{5, 1, 3, 2, 4}
	if got := trace.Percentile(vals, 0.5); got != 3 {
		t.Errorf("p50 = %g, want 3", got)
	}
	if got := trace.Percentile(vals, 1); got != 5 {
		t.Errorf("p100 = %g, want 5", got)
	}
	if got := trace.Percentile(vals, 0); got != 1 {
		t.Errorf("p0 = %g, want 1", got)
	}
	// Regression: an empty sample used to return NaN, which leaked into
	// Metrics.String and JSON reports whenever a trace shed every request.
	if got := trace.Percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %g, want 0 (NaN must not leak into reports)", got)
	}
	// Input must remain unsorted (copy semantics).
	if vals[0] != 5 {
		t.Error("Percentile mutated its input")
	}
}

func TestServeMultiGPUQueueingMath(t *testing.T) {
	// Three simultaneous 1s requests on 2 GPUs: two start immediately, the
	// third queues behind one of them.
	reqs := []trace.Request{{Arrival: 0, Size: 1}, {Arrival: 0, Size: 1}, {Arrival: 0, Size: 1}}
	res, err := trace.ServeMultiGPU(reqs, 2, func(int) (float64, error) { return 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.Sojourn[0] != 1 || res.Sojourn[1] != 1 || res.Sojourn[2] != 2 {
		t.Errorf("sojourns = %v, want [1 1 2]", res.Sojourn)
	}
	// Busy 3s over a 2s makespan x 2 GPUs = 75%.
	if math.Abs(res.Utilization-0.75) > 1e-12 {
		t.Errorf("utilization %g, want 0.75", res.Utilization)
	}
}

// More GPUs must never worsen any request's latency under least-loaded FIFO
// dispatch with identical service times.
func TestServeMultiGPUScalesDown(t *testing.T) {
	reqs, err := trace.Generate(400, trace.GeneratorConfig{QPS: 500, MaxBatch: 512, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	service := func(size int) (float64, error) { return float64(size) * 1e-5, nil }
	one, err := trace.ServeMultiGPU(reqs, 1, service)
	if err != nil {
		t.Fatal(err)
	}
	four, err := trace.ServeMultiGPU(reqs, 4, service)
	if err != nil {
		t.Fatal(err)
	}
	if four.P99 > one.P99 {
		t.Errorf("4 GPUs p99 (%g) worse than 1 GPU (%g)", four.P99, one.P99)
	}
	single, err := trace.Serve(reqs, service)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(single.P99-one.P99) > 1e-12 {
		t.Errorf("ServeMultiGPU(1) != Serve: %g vs %g", one.P99, single.P99)
	}
	if _, err := trace.ServeMultiGPU(reqs, 0, service); err == nil {
		t.Error("zero GPUs accepted")
	}
	if _, err := trace.ServeMultiGPU(nil, 2, service); err == nil {
		t.Error("empty stream accepted")
	}
}

// Integration: serve a trace through a tuned RecFlex instance; long-tail
// requests must dominate the p99 while p50 stays near the typical service
// time.
func TestServeTunedSystem(t *testing.T) {
	dev := gpusim.V100()
	mcfg := datasynth.Scaled(datasynth.ModelB(), 40)
	features := experiments.Features(mcfg)
	rng := rand.New(rand.NewSource(3))
	var hist []*embedding.Batch
	for i := 0; i < 2; i++ {
		b, err := datasynth.GenerateBatch(mcfg, 256, rng)
		if err != nil {
			t.Fatal(err)
		}
		hist = append(hist, b)
	}
	rf := core.New(dev, features)
	if err := rf.Tune(hist, tuner.Options{Occupancies: []int{2, 4, 8}, Parallelism: 4}); err != nil {
		t.Fatal(err)
	}
	// Quantize sizes to 64 so the memo keeps the test fast; the queueing
	// behaviour under test is unaffected.
	svc := rf.TimedService(func(_ float64, size int) (*embedding.Batch, error) {
		return datasynth.BatchForSize(mcfg, size)
	}, 64, nil)
	service := func(size int) (float64, error) { return svc(0, size) }
	reqs, err := trace.Generate(120, trace.GeneratorConfig{QPS: 2000, MaxBatch: 512, TailProb: 0.03, TailSize: 2560, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := trace.Serve(reqs, service)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.P50 > 0 && res.P95 >= res.P50 && res.P99 >= res.P95) {
		t.Errorf("percentiles not ordered: %g %g %g", res.P50, res.P95, res.P99)
	}
	if res.Utilization <= 0 || res.Utilization > 1 {
		t.Errorf("utilization %g", res.Utilization)
	}
}
