package core_test

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

func tunedInstance(t *testing.T) (*core.RecFlex, *datasynth.ModelConfig) {
	t.Helper()
	dev := gpusim.V100()
	cfg := datasynth.Scaled(datasynth.ModelB(), 40)
	features := experiments.Features(cfg)
	rng := rand.New(rand.NewSource(3))
	var hist []*embedding.Batch
	for i := 0; i < 2; i++ {
		b, err := datasynth.GenerateBatch(cfg, 256, rng)
		if err != nil {
			t.Fatal(err)
		}
		hist = append(hist, b)
	}
	rf := core.New(dev, features)
	if err := rf.Tune(hist, tuner.Options{Occupancies: []int{2, 4}, Parallelism: 4}); err != nil {
		t.Fatal(err)
	}
	return rf, cfg
}

// ServeTrace with one worker and no deadline must agree exactly with the
// closed-form trace.Serve over the same memoized service.
func TestServeTraceMatchesClosedForm(t *testing.T) {
	rf, cfg := tunedInstance(t)
	src := func(_ float64, size int) (*embedding.Batch, error) { return datasynth.BatchForSize(cfg, size) }
	reqs, err := trace.Generate(60, trace.GeneratorConfig{
		QPS: 2000, MaxBatch: 512, TailProb: 0.05, TailSize: 2560, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rf.ServeTrace(reqs, src, 64, trace.ServerConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	svc := rf.TimedService(src, 64, nil)
	want, err := trace.Serve(reqs, func(size int) (float64, error) { return svc(0, size) })
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		if rep.Sojourn[i] != want.Sojourn[i] {
			t.Fatalf("sojourn %d: engine %g, closed form %g", i, rep.Sojourn[i], want.Sojourn[i])
		}
	}
	if rep.Metrics.Served != len(reqs) || rep.Metrics.Shed() != 0 {
		t.Errorf("counters: %s", rep.Metrics)
	}
}

// Multi-worker serving with deadlines and the split-tail policy runs
// end-to-end on the tuned kernel and keeps its accounting consistent.
func TestServeTraceConcurrentPolicies(t *testing.T) {
	rf, cfg := tunedInstance(t)
	src := func(_ float64, size int) (*embedding.Batch, error) { return datasynth.BatchForSize(cfg, size) }
	reqs, err := trace.Generate(80, trace.GeneratorConfig{
		QPS: 30000, MaxBatch: 512, TailProb: 0.1, TailSize: 2560, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rf.ServeTrace(reqs, src, 64, trace.ServerConfig{
		Workers:  2,
		Deadline: 400e-6, // tight enough to pressure the long tail
		SplitCap: 512,
		Policy:   trace.DegradeSplitTail,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Metrics
	if m.Served+m.Shed() != len(reqs) {
		t.Fatalf("accounting: served %d + shed %d != %d", m.Served, m.Shed(), len(reqs))
	}
	for i, r := range reqs {
		if r.Size <= 512 && rep.Outcomes[i].Shed() {
			t.Fatalf("non-tail request %d (size %d) shed under default policy", i, r.Size)
		}
		if !rep.Outcomes[i].Shed() && (math.IsNaN(rep.Sojourn[i]) || rep.Sojourn[i] <= 0) {
			t.Fatalf("served request %d has sojourn %g", i, rep.Sojourn[i])
		}
	}
	if len(m.Workers) != 2 {
		t.Fatalf("worker stats %v", m.Workers)
	}
	for g, w := range m.Workers {
		if w.Utilization < 0 || w.Utilization > 1 {
			t.Errorf("worker %d utilization %g", g, w.Utilization)
		}
	}
}

// ServeTrace before tuning must fail cleanly.
func TestServeTraceRequiresTuning(t *testing.T) {
	dev := gpusim.V100()
	cfg := datasynth.Scaled(datasynth.ModelB(), 40)
	rf := core.New(dev, experiments.Features(cfg))
	src := func(_ float64, size int) (*embedding.Batch, error) { return datasynth.BatchForSize(cfg, size) }
	if _, err := rf.ServeTrace([]trace.Request{{Arrival: 0, Size: 64}}, src, 64, trace.ServerConfig{}); err == nil {
		t.Error("untuned ServeTrace accepted")
	}
}
