package core

import (
	"fmt"

	"repro/internal/fleet"
)

// FleetModel describes one model in a fleet serve: a tuned RecFlex instance,
// the batch source its measurements draw from, and its continuous-serving
// options. A Frozen model serves its current schedule set forever (no drift
// control — the stale-schedule baseline); otherwise the model runs the full
// continuous loop of ServeContinuous — drift detection, background re-tunes,
// hot-swaps, canary rollbacks — while sharing the pool's workers with its
// neighbors.
type FleetModel struct {
	// Name labels the model in fleet metrics and reports.
	Name string
	// Rec is the tuned instance. After a successful ServeFleet a supervised
	// (non-frozen) model adopts its final generation's tuning, exactly as
	// ServeContinuous would.
	Rec *RecFlex
	// Source supplies measurement batches (see TimedBatchSource).
	Source TimedBatchSource
	// Opts shapes the model's continuous loop: the pool's shared queue
	// governs capacity; the per-model supervisor contributes its window,
	// check cadence, tune duration, cooldown and canary settings.
	Opts ContinuousOptions
	// Frozen disables drift control for this model.
	Frozen bool
	// Reserve is the model's exclusive worker floor under packed/spread
	// placement (fleet.Model.Reserve): that many workers serve only this
	// model, host its background tunes, and are never drained by the
	// autoscaler.
	Reserve int
	// ClassScale maps device classes to service-time multipliers
	// (fleet.Model.ClassScale); empty means every class runs at 1x.
	ClassScale []float64
}

// FleetResult is the outcome of one fleet serve.
type FleetResult struct {
	// Report is the pool's full report (per-request outcomes, pool-wide and
	// per-model/per-tenant metrics, per-model trace reports with swap
	// histories).
	Report *fleet.Report
	// Interference holds the per-model sojourn-inflation ratios versus each
	// model served alone on its initially assigned workers (NaN for a model
	// that served nothing). See fleet.Pool.Interference.
	Interference []float64
}

// ServeFleet replays one multi-model, multi-tenant request stream over a
// shared simulated GPU pool: the core-level bridge to internal/fleet. Each
// non-frozen model runs its own continuous serving loop (drift detection,
// background re-tunes booked on its placed workers, hot-swaps, canary
// rollbacks) with model-local generations, while the pool arbitrates
// capacity through cfg's placement strategy and admission policy — including
// weighted-fair (deficit round-robin) dispatch between priority classes when
// cfg.Admission is a fleet.WeightedFair. cfg's RebalanceEvery/Rebalance pair
// enables periodic repartitioning (fleet.NewRebalanceByLoad consumes the
// recorded load history), and cfg.Queue's DegradeSplitTail with SplitCap
// splits over-cap tail requests inside the shared pool. After a successful
// run each supervised model's instance adopts its final generation's tuning,
// matching ServeContinuous's last-commit semantics.
//
// Determinism carries through from the parts: a fixed trace, drift sources
// and tuner seeds reproduce the identical FleetResult.
func ServeFleet(cfg fleet.Config, models []FleetModel, tenants []fleet.TenantSpec, reqs []fleet.Request) (*FleetResult, error) {
	pool, commits, err := BuildFleetPool(cfg, models, tenants)
	if err != nil {
		return nil, err
	}
	rep, err := pool.Serve(reqs)
	if err != nil {
		return nil, err
	}
	ratios, err := pool.Interference(reqs, rep)
	if err != nil {
		return nil, err
	}
	for _, commit := range commits {
		commit()
	}
	return &FleetResult{Report: rep, Interference: ratios}, nil
}

// BuildFleetPool converts core-level FleetModels into a ready fleet.Pool —
// the step ServeFleet runs before its batch replay, exported so live-serving
// front doors (internal/gateway, recflex-serve -listen) can drive the same
// pool incrementally. The returned commit hooks belong to supervised
// (non-frozen) models; call each after a successful serving run to make the
// model's RecFlex instance adopt its final generation's tuning, exactly as
// ServeFleet does.
func BuildFleetPool(cfg fleet.Config, models []FleetModel, tenants []fleet.TenantSpec) (*fleet.Pool, []func(), error) {
	fm := make([]fleet.Model, len(models))
	commits := make([]func(), 0, len(models))
	for i := range models {
		m := &models[i]
		if m.Rec == nil {
			return nil, nil, fmt.Errorf("core: fleet model %s has no RecFlex instance", m.Name)
		}
		if m.Frozen {
			if m.Rec.Tuned() == nil {
				return nil, nil, errNotTuned
			}
			fm[i] = fleet.Model{
				Name:       m.Name,
				Service:    m.Rec.TimedService(m.Source, m.Opts.Quantum, m.Opts.PhaseOf),
				Reserve:    m.Reserve,
				ClassScale: m.ClassScale,
			}
			continue
		}
		sv, commit, err := m.Rec.continuousSupervisor(m.Source, m.Opts)
		if err != nil {
			return nil, nil, fmt.Errorf("core: fleet model %s: %w", m.Name, err)
		}
		fm[i] = fleet.Model{Name: m.Name, Supervisor: sv, Reserve: m.Reserve, ClassScale: m.ClassScale}
		commits = append(commits, commit)
	}
	pool, err := fleet.NewPool(cfg, fm, tenants)
	if err != nil {
		return nil, nil, err
	}
	return pool, commits, nil
}
