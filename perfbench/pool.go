package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/datasynth"
	"repro/internal/embedding"
	"repro/internal/emcache"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/gpusim"
	"repro/internal/trace"
	"repro/internal/tuner"
)

// The serving pool every serving workload shares, built the way
// recflex-serve's fleet mode builds it (-models A,C -scale 25 -gpus 4
// -queue 64 -deadline 1 -tenants interactive:1:0:0.25,bulk:0:8
// -degrade split-tail -cache-budget ... -cache-policy lru).
const (
	servingScale = 25
	quantum      = 32  // recflex-serve's sizeQuantum
	splitCap     = 512 // recflex-serve's splitCap
	poolWorkers  = 4
	queueDepth   = 64
	// cacheShare is the embedding-cache budget as a share of the two models'
	// table bytes. Any budget below them makes the tier's analytic PCIe
	// model charge 0.5-17 ms per dispatch at this scale, which would bury
	// the serving stack under simulated penalty, so the tier holds every row:
	// dispatches pay the tier's bookkeeping but no penalty.
	cacheShare = 1.0
)

var servingModels = []func() *datasynth.ModelConfig{datasynth.ModelA, datasynth.ModelC}

func servingTenants() []fleet.TenantSpec {
	return []fleet.TenantSpec{
		{Name: "interactive", Priority: 1, Deadline: 0.25e-3},
		{Name: "bulk", Priority: 0, Quota: 8},
	}
}

// resolution is one call the engine made into a model's batch source: one
// inner service measurement (batch synthesis, then compile and simulate).
type resolution struct {
	model, size int
	batch       *embedding.Batch
	synth       time.Duration
}

// sourceProbe wraps each model's batch source. It counts and times every
// call, which is every inner measurement the service memo did not absorb.
type sourceProbe struct {
	tr    *tracer
	mu    sync.Mutex
	calls []resolution
}

func (p *sourceProbe) source(model int, cfg *datasynth.ModelConfig) core.TimedBatchSource {
	return func(_ float64, size int) (*embedding.Batch, error) {
		t0 := time.Now()
		b, err := datasynth.BatchForSize(cfg, size)
		t1 := time.Now()
		p.tr.record("datasynth.batch", -1, t0, t1)
		r := resolution{model: model, size: size, synth: t1.Sub(t0)}
		if p.tr != nil {
			r.batch = b // kept only for the traced run's re-timing
		}
		p.mu.Lock()
		p.calls = append(p.calls, r)
		p.mu.Unlock()
		return b, err
	}
}

// mark returns the number of calls so far; since(mark) the calls after it.
func (p *sourceProbe) mark() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.calls)
}

func (p *sourceProbe) since(mark int) []resolution {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]resolution(nil), p.calls[mark:]...)
}

// servingPool is one built pool over the tuned models.
type servingPool struct {
	pool   *fleet.Pool
	recs   []*core.RecFlex
	probe  *sourceProbe
	buildS float64 // wall of core.BuildFleetPool, tier included
}

// tuneModel is recflex-serve's tuning recipe: two historical batches of 256
// and 384 samples drawn from the model's own seed, default tuner options.
func tuneModel(cfg *datasynth.ModelConfig, dev *gpusim.Device) (*core.RecFlex, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var hist []*embedding.Batch
	for _, n := range []int{256, 384} {
		b, err := datasynth.GenerateBatch(cfg, n, rng)
		if err != nil {
			return nil, err
		}
		hist = append(hist, b)
	}
	rf := core.New(dev, experiments.Features(cfg))
	if err := rf.Tune(hist, tuner.Options{}); err != nil {
		return nil, err
	}
	return rf, nil
}

// buildPool builds a fresh serving pool — its own service memos, source
// probe and embedding-cache tier — over already tuned models.
func buildPool(recs []*core.RecFlex, cfgs []*datasynth.ModelConfig, tr *tracer) (*servingPool, error) {
	t0 := time.Now()
	sp := &servingPool{recs: recs, probe: &sourceProbe{tr: tr}}
	var models []core.FleetModel
	var heats []emcache.ModelProfile
	var tableBytes float64
	for i, cfg := range cfgs {
		heat := experiments.CacheHeat(cfg)
		for _, h := range heat {
			tableBytes += float64(h.Rows) * float64(h.RowBytes)
		}
		heats = append(heats, emcache.Steady(heat))
		models = append(models, core.FleetModel{
			Name:   cfg.Name,
			Rec:    recs[i],
			Source: sp.probe.source(i, cfg),
			Opts:   core.ContinuousOptions{Quantum: quantum},
			Frozen: true,
		})
	}
	tier, err := emcache.New(emcache.Config{
		BudgetBytes: int64(tableBytes*cacheShare) + 1<<20,
		Policy:      emcache.PolicyLRU,
		Models:      heats,
		Tenants:     len(servingTenants()),
	})
	if err != nil {
		return nil, err
	}
	cfg := fleet.Config{
		Queue: trace.QueuePolicy{
			Workers:    poolWorkers,
			QueueDepth: queueDepth,
			Deadline:   1e-3,
			Policy:     trace.DegradeSplitTail,
			SplitCap:   splitCap,
		},
		Cache: tier,
	}
	if sp.pool, _, err = core.BuildFleetPool(cfg, models, servingTenants()); err != nil {
		return nil, err
	}
	t1 := time.Now()
	tr.record("core.build_pool", -1, t0, t1)
	sp.buildS = t1.Sub(t0).Seconds()
	return sp, nil
}

// servingSetups tunes both models and builds two pools over them: the one
// under test and the fresh one its correctness check replays through. The
// set-up time is the tuning wall plus the median pool build. Tuning runs
// once: at ~7 s it would not fit the run budget twice per run.
func (b *bench) servingSetups() (live, fresh *servingPool, err error) {
	dev := gpusim.V100()
	var recs []*core.RecFlex
	var cfgs []*datasynth.ModelConfig
	var tuneS float64
	for _, mk := range servingModels {
		cfg := datasynth.Scaled(mk(), servingScale)
		t0 := time.Now()
		rf, err := tuneModel(cfg, dev)
		if err != nil {
			return nil, nil, fmt.Errorf("tune model %s: %w", cfg.Name, err)
		}
		t1 := time.Now()
		b.tr.record("core.tune_model", -1, t0, t1)
		tuneS += t1.Sub(t0).Seconds()
		recs, cfgs = append(recs, rf), append(cfgs, cfg)
	}
	if live, err = buildPool(recs, cfgs, b.tr); err != nil {
		return nil, nil, err
	}
	if fresh, err = buildPool(recs, cfgs, b.tr); err != nil {
		return nil, nil, err
	}
	build := median([]float64{live.buildS, fresh.buildS})
	b.set("setup_s", tuneS+build)
	b.setLayer("core.tune_model_s", tuneS)
	b.setLayer("core.build_pool_s", build)
	b.report("setup", "setup_s", tuneS+build, "s", 1)
	b.report("setup", "core.tune_model_s", tuneS, "s", len(recs))
	b.report("setup", "core.build_pool_s", build, "s", 2)
	return live, fresh, nil
}

// serviceLayers reports the service-resolution layer for the calls a phase
// made: how many inner measurements ran, how many of them were useful (one
// per distinct model and quantized size), the synthesis time inside the
// source, and — in a traced run — compile and simulate times re-measured
// outside the engine on the very batches the engine resolved.
func (b *bench) serviceLayers(sp *servingPool, calls []resolution) {
	distinct := map[[2]int]resolution{}
	var synth time.Duration
	for _, c := range calls {
		distinct[[2]int{c.model, c.size}] = c
		synth += c.synth
	}
	b.setLayer("service.inner_calls", float64(len(calls)))
	if len(calls) > 0 {
		b.setLayer("service.useful_ratio", float64(len(distinct))/float64(len(calls)))
	}
	b.setLayer("datasynth.synth_ms", synth.Seconds()*1e3)
	if b.tr == nil || len(calls) == 0 {
		return
	}
	// Compile and simulate are deterministic per batch, so each distinct
	// batch is re-timed once and charged for every call that resolved it.
	type cost struct{ compile, simulate, blocks float64 }
	costs := map[[2]int]cost{}
	for k, c := range distinct {
		fu, sim, blocks, err := compileAndSimulate(sp.recs[c.model], c.batch, b.tr)
		if err != nil {
			b.check(false, "re-timing model %d size %d: %v", c.model, c.size, err)
			return
		}
		costs[k] = cost{fu, sim, float64(blocks)}
	}
	var compile, simulate, blocks float64
	for _, c := range calls {
		k := costs[[2]int{c.model, c.size}]
		compile += k.compile
		simulate += k.simulate
		blocks += k.blocks
	}
	b.setLayer("fusion.compile_ms", compile*1e3)
	b.setLayer("gpusim.simulate_ms", simulate*1e3)
	if blocks > 0 {
		b.setLayer("gpusim.ns_per_block", simulate*1e9/blocks)
	}
}

// compileAndSimulate times RecFlex.CompileBatch and Fused.Simulate on one
// batch and returns both durations in seconds and the kernel's block count.
func compileAndSimulate(rf *core.RecFlex, batch *embedding.Batch, tr *tracer) (compile, simulate float64, blocks int, err error) {
	t0 := time.Now()
	fu, err := rf.CompileBatch(batch)
	if err != nil {
		return 0, 0, 0, err
	}
	t1 := time.Now()
	res, err := fu.Simulate()
	if err != nil {
		return 0, 0, 0, err
	}
	t2 := time.Now()
	tr.record("fusion.compile", -1, t0, t1)
	tr.record("gpusim.simulate", -1, t1, t2)
	return t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), len(res.BlockTime), nil
}

// fleetLayers reports the engine and cache counters of one pool report.
func (b *bench) fleetLayers(m *fleet.Metrics, attempted int) {
	b.setLayer("fleet.max_queue", float64(m.MaxQueueDepth))
	b.setLayer("fleet.split_served", float64(m.SplitServed))
	b.setLayer("fleet.shed_quota", float64(m.ShedQuota))
	b.setLayer("fleet.timeouts", float64(m.Timeouts))
	if attempted > 0 {
		b.setLayer("fleet.shed_ratio", float64(m.Shed())/float64(attempted))
	}
	if m.Cache != nil {
		b.setLayer("emcache.hit_ratio", m.Cache.HitRate)
		b.setLayer("emcache.evictions", float64(m.Cache.Evictions))
	}
}
