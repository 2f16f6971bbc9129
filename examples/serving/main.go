// Serving: an online inference loop with dynamic workloads — request batch
// sizes drawn from a serving distribution, a long-tail request that a
// DeepRecSys-style system would not split, per-request runtime thread mapping
// (compared against the static avg/max strategies of Figure 13),
// distribution-drift detection that triggers the paper's periodic re-tuning,
// and the concurrent serving engine replaying a Poisson trace through two
// simulated GPUs with deadlines and split-at-cap degradation.
//
// The drift check here is offline: it compares two static datasets and
// re-tunes in one blocking step. examples/continuous runs the same story
// online — a supervisor detects the drift mid-trace, re-tunes in the
// background while admission continues, and hot-swaps the schedule set.
//
//	go run ./examples/serving
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/datasynth"
	"repro/internal/embedding"
	"repro/internal/experiments"
	"repro/internal/fusion"
	"repro/internal/gpusim"
	"repro/internal/trace"
	"repro/internal/tuner"
)

func main() {
	log.SetFlags(0)
	dev := gpusim.V100()
	cfg := datasynth.Scaled(datasynth.ModelC(), 20) // 40 multi-hot features
	features := experiments.Features(cfg)

	rng := rand.New(rand.NewSource(cfg.Seed))
	makeBatches := func(c *datasynth.ModelConfig, sizes []int) []*embedding.Batch {
		out := make([]*embedding.Batch, len(sizes))
		for i, n := range sizes {
			b, err := datasynth.GenerateBatch(c, n, rng)
			if err != nil {
				log.Fatal(err)
			}
			out[i] = b
		}
		return out
	}

	// Compile-time: tune on recent history.
	historical := makeBatches(cfg, []int{256, 320, 192})
	rf := core.New(dev, features)
	if err := rf.Tune(historical, tuner.Options{}); err != nil {
		log.Fatal(err)
	}
	tuned := rf.Tuned()
	fmt.Printf("tuned %d features, occupancy %d blocks/SM\n\n", len(features), tuned.Occupancy)

	// Derive the static thread mappings from the same history (Fig. 13).
	var history [][]int
	for _, b := range historical {
		fu, err := rf.CompileBatch(b)
		if err != nil {
			log.Fatal(err)
		}
		history = append(history, fu.BlockUsage())
	}
	avgAlloc, err := fusion.StaticAllocation(history, false)
	if err != nil {
		log.Fatal(err)
	}
	maxAlloc, err := fusion.StaticAllocation(history, true)
	if err != nil {
		log.Fatal(err)
	}

	measure := func(b *embedding.Batch, mode fusion.MappingMode, static []int) float64 {
		fu, err := fusion.Compile(dev, features, tuned.Choices, b, fusion.Options{
			TargetBlocksPerSM: tuned.Occupancy,
			Mapping:           mode,
			StaticBlocks:      static,
		})
		if err != nil {
			log.Fatal(err)
		}
		r, err := fu.Simulate()
		if err != nil {
			log.Fatal(err)
		}
		return r.Time
	}

	// Serving loop: requests of varying size, split at 512.
	requests := datasynth.RequestSizes(8, 512, 99)
	requests = append(requests, datasynth.LongTailRequest) // unsplit long tail
	fmt.Printf("%8s %12s %12s %12s\n", "batch", "runtime", "static-avg", "static-max")
	for _, n := range requests {
		b, err := datasynth.GenerateBatch(cfg, n, rng)
		if err != nil {
			log.Fatal(err)
		}
		rt := measure(b, fusion.MapRuntime, nil)
		sa := measure(b, fusion.MapStaticAvg, avgAlloc)
		sm := measure(b, fusion.MapStaticMax, maxAlloc)
		tag := ""
		if n == datasynth.LongTailRequest {
			tag = "  <- long tail"
		}
		fmt.Printf("%8d %10.2fus %10.2fus %10.2fus%s\n", n, rt*1e6, sa*1e6, sm*1e6, tag)
	}

	// Concurrent serving engine: a Poisson request trace through two
	// simulated GPUs behind a bounded admission queue, with a 0.5ms
	// deadline — tight enough that an unsplit 2,560-sample tail kernel
	// (~0.7ms above) cannot meet it, forcing the default split-at-cap
	// degradation. The engine resolves kernel times on a concurrent worker
	// pool, replays queueing on a virtual clock, and exposes a full
	// observability snapshot.
	reqs, err := trace.Generate(150, trace.GeneratorConfig{
		QPS: 4000, MaxBatch: 512, TailProb: 0.04,
		TailSize: datasynth.LongTailRequest, Seed: cfg.Seed ^ 0xCAFE,
	})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := rf.ServeTrace(reqs,
		func(_ float64, size int) (*embedding.Batch, error) { return datasynth.BatchForSize(cfg, size) },
		64, trace.ServerConfig{
			Workers:    2,
			QueueDepth: 32,
			Deadline:   5e-4,
			SplitCap:   512,
			Policy:     trace.DegradeSplitTail,
		})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nconcurrent engine: %d requests on 2 GPUs, p50 %.2fus p99 %.2fus\n",
		len(reqs), rep.P50*1e6, rep.P99*1e6)
	fmt.Printf("counters: %s\n", rep.Metrics)
	for g, w := range rep.Metrics.Workers {
		fmt.Printf("  gpu%d: %d units, %.1f%% utilized\n", g, w.Served, w.Utilization*100)
	}
	fmt.Printf("latency histogram:\n%s", rep.Metrics.Latency.Render(36))

	// Distribution drift: pooling factors triple -> the drift detector
	// recommends the periodic re-tune of §IV-A3.
	shifted := datasynth.Drifted(cfg, 3)
	recent := makeBatches(shifted, []int{256, 256})
	drift, err := rf.ShouldRetune(recent)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndistribution shift detected, re-tune recommended: %v\n", drift)
	if drift {
		if err := rf.Tune(recent, tuner.Options{}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("re-tuned: new occupancy %d blocks/SM\n", rf.Tuned().Occupancy)
	}
}
