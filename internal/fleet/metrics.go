package fleet

import (
	"fmt"

	"repro/internal/emcache"
	"repro/internal/trace"
)

// GroupMetrics is the per-model or per-tenant slice of one fleet run.
type GroupMetrics struct {
	// Name labels the group (model or tenant name).
	Name string
	// Served counts requests that completed service (including late and
	// split ones).
	Served int
	// SplitServed counts long-tail requests served through the split-at-cap
	// degradation fallback (a subset of Served).
	SplitServed int
	// Timeouts counts served requests that completed after their deadline.
	Timeouts int
	// ShedQueue, ShedQuota, ShedLoad and ShedDeadline count drops by cause.
	ShedQueue, ShedQuota, ShedLoad, ShedDeadline int
	// MaxQueued is the group's peak queued-request count.
	MaxQueued int
	// Latency is the group's served-sojourn histogram.
	Latency *trace.Histogram
	// MeanSojourn, P50, P95 and P99 are exact statistics over the group's
	// served sojourns, clamped to 0 when nothing was served (Served == 0 is
	// the "no data" signal; NaN here would poison JSON reports and gateway
	// responses).
	MeanSojourn, P50, P95, P99 float64
}

// Shed returns the group's total dropped requests.
func (g *GroupMetrics) Shed() int {
	return g.ShedQueue + g.ShedQuota + g.ShedLoad + g.ShedDeadline
}

// String summarizes the group's counters in one line.
func (g *GroupMetrics) String() string {
	split := ""
	if g.SplitServed > 0 {
		split = fmt.Sprintf(" split=%d", g.SplitServed)
	}
	return fmt.Sprintf("%s: served=%d%s timeouts=%d shed=%d (queue=%d quota=%d load=%d deadline=%d) max-queued=%d",
		g.Name, g.Served, split, g.Timeouts, g.Shed(), g.ShedQueue, g.ShedQuota, g.ShedLoad, g.ShedDeadline, g.MaxQueued)
}

// Metrics is the observability snapshot of one fleet run: pool-wide
// counters plus the per-model and per-tenant splits — the accounting
// contract multi-tenant serving is judged by.
type Metrics struct {
	// Served, Timeouts and the Shed* counters aggregate across the pool.
	Served, Timeouts                             int
	ShedQueue, ShedQuota, ShedLoad, ShedDeadline int
	// SplitServed counts long-tail requests served through the split-at-cap
	// fallback (a subset of Served).
	SplitServed int
	// MaxQueueDepth is the peak shared-queue occupancy.
	MaxQueueDepth int
	// Makespan is the span from first arrival to last completion in seconds
	// (0 when nothing was served).
	Makespan float64
	// Latency is the pool-wide served-sojourn histogram.
	Latency *trace.Histogram
	// Workers holds per-simulated-GPU accounting; TuneBusy attributes each
	// model's background tunes to the slot that held them.
	Workers []trace.WorkerStats
	// Models and Tenants are the per-group splits.
	Models, Tenants []GroupMetrics
	// Rebalances counts applied placement changes from the rebalance hook.
	Rebalances int
	// Preemptions counts chunk-boundary preemptions under Config.Preempt:
	// each is one queued split chunk that yielded its dispatch slot (to a
	// higher-priority whole request, an applied rebalance or a scale-in) and
	// was requeued at the preemption time.
	Preemptions int
	// ScaleEvents records every applied autoscaling decision in virtual-time
	// order (empty without Config.Autoscale).
	ScaleEvents []ScaleEvent
	// WorkerLives records each worker's add/retire times in an autoscaled
	// run, indexed by worker id (nil without Config.Autoscale).
	WorkerLives []WorkerLife
	// LoadHistory is every load snapshot recorded at the rebalance pacing
	// (empty when no Rebalance hook is configured). The last entry is the
	// most recent; RebalanceByLoad consumes this same history during the
	// run. Callers must treat it as read-only.
	LoadHistory []LoadSnapshot
	// Policy names the admission policy that shaped the run.
	Policy string
	// Placement names the placement strategy.
	Placement string
	// Cache is the embedding-cache tier's accounting snapshot (hit rate,
	// cold bytes, occupancy, evictions, per-model/per-tenant splits), nil
	// when the pool serves without a tier. Group names are filled from the
	// pool's model and tenant lists.
	Cache *emcache.Snapshot
}

// Shed returns the pool-wide total of dropped requests.
func (m *Metrics) Shed() int {
	return m.ShedQueue + m.ShedQuota + m.ShedLoad + m.ShedDeadline
}

// String summarizes the pool-wide counters in one line.
func (m *Metrics) String() string {
	split := ""
	if m.SplitServed > 0 {
		split = fmt.Sprintf(" split=%d", m.SplitServed)
	}
	return fmt.Sprintf("served=%d%s timeouts=%d shed=%d (queue=%d quota=%d load=%d deadline=%d) max-queue=%d models=%d tenants=%d",
		m.Served, split, m.Timeouts, m.Shed(), m.ShedQueue, m.ShedQuota, m.ShedLoad, m.ShedDeadline,
		m.MaxQueueDepth, len(m.Models), len(m.Tenants))
}

// Report is the outcome of one fleet trace: per-request results aligned to
// the caller's request order, the pool-wide Metrics, and one trace.Report
// per model (its own sojourns and — for supervised models — its swap
// history, generation count and rollbacks).
type Report struct {
	// Sojourn[i] is request i's end-to-end latency (for a split request,
	// last chunk completion minus arrival); NaN for shed requests.
	Sojourn []float64
	// Outcomes[i] resolves request i.
	Outcomes []Outcome
	// Generations[i] is the model-local schedule-set generation request i
	// was admitted on.
	Generations []int
	// Dispatch[i] is the virtual time request i started service (for a split
	// request, its first chunk's start); NaN for shed requests.
	Dispatch []float64
	// Worker[i] is the simulated GPU that served request i (for a split
	// request, the worker of its last-dispatched chunk); -1 for shed
	// requests.
	Worker []int
	// Service[i] is request i's resolved service time (for a split request,
	// the summed chunk service). NaN for shed requests. Interference replays
	// are built from these, over whole-served requests only.
	Service []float64
	// Metrics is the pool-wide observability snapshot.
	Metrics *Metrics
	// ModelReports[m] is model m's single-model view of the run.
	ModelReports []*trace.Report
}

// groupStats finalizes one group's exact latency statistics from its
// retained sojourns.
func groupStats(g *GroupMetrics, sojourns []float64) {
	if len(sojourns) == 0 {
		g.MeanSojourn, g.P50, g.P95, g.P99 = 0, 0, 0, 0
		return
	}
	var sum float64
	for _, s := range sojourns {
		sum += s
	}
	g.MeanSojourn = sum / float64(len(sojourns))
	var q trace.Quantiler
	g.P50, g.P95, g.P99 = q.P50P95P99(sojourns)
}
