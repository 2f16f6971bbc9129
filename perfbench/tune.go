package main

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/datasynth"
	"repro/internal/embedding"
	"repro/internal/experiments"
	"repro/internal/fusion"
	"repro/internal/gpusim"
	"repro/internal/tuner"
)

const (
	tuneScale   = 25  // model A's feature-count divisor in tune-drift
	tuneBatches = 4   // recflex-tune's default historical batch count
	tuneSize    = 256 // the mean of recflex-tune's historical batch sizes
	driftFactor = 1.5 // pooling-factor drift the re-tune answers
	evalBatches = 2   // held-out batches per tuned set
	minCycles   = 2   // cycles compared with each other for determinism
	tableRows   = 1024
	// setupRepeats is how many times the inputs are synthesized; set-up is
	// a fraction of a second, so its median needs several samples.
	setupRepeats = 5
)

// tuneInputs are one tune-drift run's generated inputs.
type tuneInputs struct {
	cfg, drifted      *datasynth.ModelConfig
	hist, window      []*embedding.Batch
	evalBase, evalDft []*embedding.Batch
	tables            []*embedding.Table
	check             *embedding.Batch // functional check, against tables
	checkCfg          *datasynth.ModelConfig
}

// makeTuneInputs draws every batch tune-drift uses from the workload seed.
func makeTuneInputs(seed int64) (*tuneInputs, error) {
	in := &tuneInputs{cfg: datasynth.Scaled(datasynth.ModelA(), tuneScale)}
	in.drifted = datasynth.Drifted(in.cfg, driftFactor)
	rng := rand.New(rand.NewSource(seed))
	draw := func(cfg *datasynth.ModelConfig, n int) ([]*embedding.Batch, error) {
		var out []*embedding.Batch
		for i := 0; i < n; i++ {
			b, err := datasynth.GenerateBatch(cfg, tuneSize, rng)
			if err != nil {
				return nil, err
			}
			out = append(out, b)
		}
		return out, nil
	}
	var err error
	if in.hist, err = draw(in.cfg, tuneBatches); err != nil {
		return nil, err
	}
	if in.window, err = draw(in.drifted, tuneBatches); err != nil {
		return nil, err
	}
	if in.evalBase, err = draw(in.cfg, evalBatches); err != nil {
		return nil, err
	}
	if in.evalDft, err = draw(in.drifted, evalBatches); err != nil {
		return nil, err
	}
	in.checkCfg = datasynth.CapRows(in.cfg, tableRows)
	if in.tables, err = datasynth.BuildTables(in.checkCfg); err != nil {
		return nil, err
	}
	if in.check, err = datasynth.GenerateBatch(in.checkCfg, 64, rng); err != nil {
		return nil, err
	}
	return in, nil
}

// cycle is one cold tune and the warm re-tune that answers drift.
type cycle struct {
	tuneS, retuneS   float64
	cold, warm       *tuner.Result
	coldSims, reSims int64 // simulations run (memo misses)
	reHits           int64
	rf, re           *core.RecFlex
}

// runCycle tunes model A cold on the historical batches with a fresh memo,
// then re-tunes on the drifted window warm-started from that result with the
// same memo, the way a supervised model answers drift before a hot swap.
func runCycle(in *tuneInputs, dev *gpusim.Device, tr *tracer, id int) (*cycle, error) {
	c := &cycle{}
	memo := tuner.NewMemo()
	features := experiments.Features(in.cfg)
	c0 := time.Now()
	c.rf = core.New(dev, features)
	if err := c.rf.Tune(in.hist, tuner.Options{Memo: memo}); err != nil {
		return nil, err
	}
	c1 := time.Now()
	hits0, miss := memo.Stats()
	c.coldSims = miss
	c.re = core.New(dev, features)
	if err := c.re.Tune(in.window, tuner.Options{Memo: memo, Warm: tuner.WarmFrom(c.rf.Tuned())}); err != nil {
		return nil, err
	}
	c2 := time.Now()
	hits, miss2 := memo.Stats()
	c.reSims, c.reHits = miss2-miss, hits-hits0
	c.tuneS, c.retuneS = c1.Sub(c0).Seconds(), c2.Sub(c1).Seconds()
	c.cold, c.warm = c.rf.Tuned(), c.re.Tuned()
	tr.record("tuner.cycle", id, c0, c2)
	tr.record("core.tune", id, c0, c1)
	tr.record("core.retune", id, c1, c2)
	return c, nil
}

// tuneDrift: cold tune, then warm re-tune on drifted batches, repeated; no
// serving at all.
func tuneDrift(b *bench) error {
	dev := gpusim.V100()
	var setups []float64
	var in *tuneInputs
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if in, err = makeTuneInputs(b.seed); err != nil {
			return err
		}
		setups = append(setups, since(t0))
	}
	b.set("setup_s", median(setups))
	b.report("setup", "setup_s", median(setups), "s", len(setups))

	var cycles []*cycle
	start := time.Now()
	deadline := start.Add(time.Duration(b.seconds * float64(time.Second)))
	for len(cycles) < minCycles || time.Now().Before(deadline) {
		c, err := runCycle(in, dev, b.tr, len(cycles))
		b.attempted += 2
		if err != nil {
			b.failed += 2
			return fmt.Errorf("cycle %d: %w", len(cycles), err)
		}
		b.report(fmt.Sprintf("cycle%d", len(cycles)), "tune_s", c.tuneS, "s", 1)
		b.report(fmt.Sprintf("cycle%d", len(cycles)), "retune_s", c.retuneS, "s", 1)
		if len(cycles) > 0 {
			first := cycles[0]
			b.check(sameResult(first.cold, c.cold), "cycle %d: cold tune differs from cycle 0", len(cycles))
			b.check(sameResult(first.warm, c.warm), "cycle %d: re-tune differs from cycle 0", len(cycles))
		}
		cycles = append(cycles, c)
	}
	wall := since(start)

	// Quality: the tuned sets' simulated kernel time on held-out batches,
	// and the tuned kernel's functional outputs against the CPU reference.
	first := cycles[0]
	var kernel, simS, blocks float64
	var evals int
	for _, e := range []struct {
		rf *core.RecFlex
		bs []*embedding.Batch
	}{{first.rf, in.evalBase}, {first.re, in.evalDft}} {
		for _, batch := range e.bs {
			t, err := e.rf.Measure(dev, nil, batch)
			if err != nil {
				return err
			}
			kernel += t
			evals++
			if b.tr == nil {
				continue
			}
			_, sim, nb, err := compileAndSimulate(e.rf, batch, b.tr)
			if err != nil {
				return err
			}
			simS += sim
			blocks += float64(nb)
		}
	}
	outs, _, err := first.rf.Run(in.tables, in.check)
	if err != nil {
		return fmt.Errorf("functional run: %w", err)
	}
	want, err := fusion.ReferenceOutputs(first.rf.Features(), in.tables, in.check)
	if err != nil {
		return err
	}
	b.check(sameOutputs(outs, want), "tuned kernel outputs differ from fusion.ReferenceOutputs")

	var tunes, retunes []float64
	var sims int64
	var tuneWall float64
	for _, c := range cycles {
		tunes = append(tunes, c.tuneS)
		retunes = append(retunes, c.retuneS)
		sims += c.coldSims + c.reSims
		tuneWall += c.tuneS + c.retuneS
	}
	kernelUs := kernel / float64(evals) * 1e6
	b.set("wall_p50_ms", median(retunes)*1e3)
	b.set("wall_tail_ms", median(tunes)*1e3)
	b.set("throughput_per_s", float64(sims)/tuneWall)
	b.set("sim_us", kernelUs)
	b.report("tune", "tune_s", median(tunes), "s", len(tunes))
	b.report("tune", "retune_s", median(retunes), "s", len(retunes))
	b.report("tune", "kernel_sim_us", kernelUs, "us", evals)
	b.report("tune", "sims_per_s", float64(sims)/tuneWall, "1/s", len(cycles))

	b.setLayer("tuner.simulations", float64(first.coldSims))
	if t := first.reHits + first.reSims; t > 0 {
		b.setLayer("tuner.memo_hit_ratio", float64(first.reHits)/float64(t))
	}
	b.setLayer("tuner.occupancies", float64(len(first.cold.PerOccupancy)))
	b.setLayer("tuner.sims_per_s", float64(first.coldSims)/first.tuneS)
	b.setLayer("core.tune_model_s", first.tuneS)
	if blocks > 0 {
		b.setLayer("gpusim.simulate_ms", simS*1e3)
		b.setLayer("gpusim.ns_per_block", simS*1e9/blocks)
	}
	b.overhead(wall)
	return nil
}

// sameResult compares two tuning results exactly, floats by bit pattern.
func sameResult(a, b *tuner.Result) bool {
	if a.Occupancy != b.Occupancy || math.Float64bits(a.Latency) != math.Float64bits(b.Latency) ||
		!reflect.DeepEqual(a.ChoiceIdx, b.ChoiceIdx) || len(a.PerOccupancy) != len(b.PerOccupancy) {
		return false
	}
	for i := range a.PerOccupancy {
		x, y := a.PerOccupancy[i], b.PerOccupancy[i]
		if x.BlocksPerSM != y.BlocksPerSM || x.Abandoned != y.Abandoned ||
			math.Float64bits(x.Latency) != math.Float64bits(y.Latency) || !reflect.DeepEqual(x.ChoiceIdx, y.ChoiceIdx) {
			return false
		}
	}
	return true
}

func sameOutputs(a, b [][]float32) bool {
	if len(a) != len(b) {
		return false
	}
	for f := range a {
		if len(a[f]) != len(b[f]) {
			return false
		}
		for i := range a[f] {
			if math.Float32bits(a[f][i]) != math.Float32bits(b[f][i]) {
				return false
			}
		}
	}
	return true
}
