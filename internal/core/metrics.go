package core

import (
	"newmad/internal/packet"
	"newmad/internal/simnet"
	"newmad/internal/trace"
)

// The engine's observation surface for closed-loop control
// (internal/control): a point-in-time snapshot of per-engine activity
// counters plus the tuning currently in effect. Counters here are engine-
// private — unlike the stats.Set, which experiments routinely share across
// the engines of one rig — so a controller watching one node never sees a
// neighbour's traffic folded into its evidence.

// counters is one shard's slice of the engine-private activity tally,
// guarded by that shard's mu. MetricsInto sums the slices; delivery and
// rendezvous-retry tallies live on the engine under pmu (they belong to
// the protocol side, not to any shard), and idle upcalls are a plain
// engine atomic.
type counters struct {
	submitted      uint64
	submittedBytes uint64
	submittedCtrl  uint64
	eagerBytes     uint64
	rdvBytes       uint64
	framesPosted   uint64
	packetsSent    uint64
	aggregates     uint64
	plans          uint64 // backlog plans built
	planEvaluated  uint64 // candidate arrangements those plans evaluated
	nagleFires     uint64 // delay timer expired and triggered a pump
	nagleEarly     uint64 // delay cut short by backlog pressure or Flush

	// Resilience counters (the chaos observation surface).
	framesReclaimed uint64 // frames handed back by failing rails
	failovers       uint64 // failover-queue frames re-posted on a live rail
}

// Metrics is a point-in-time snapshot of one engine: queue depths, activity
// counters since construction, and the runtime tuning currently in effect.
// Rates and ratios are left to the observer (internal/control derives them
// over sliding windows); the engine reports only exact totals.
type Metrics struct {
	// Now is the engine clock at snapshot time.
	Now simnet.Time

	// Queue depths at snapshot time.
	Backlog    int
	CtrlQueued int
	BulkQueued int

	// Activity totals since the engine was created.
	Submitted      uint64
	SubmittedBytes uint64
	SubmittedCtrl  uint64 // control-class submissions (class mix evidence)
	EagerBytes     uint64 // bytes routed eager at submission
	RdvBytes       uint64 // bytes routed rendezvous at submission
	FramesPosted   uint64
	PacketsSent    uint64
	Aggregates     uint64 // frames carrying more than one packet
	Plans          uint64 // frames the plan builder built from the backlog
	PlanEvaluated  uint64 // arrangements evaluated over all Plans (search cost)
	IdleUpcalls    uint64 // scheduler activations
	NagleFires     uint64 // artificial delays that ran to their timer
	NagleEarly     uint64 // artificial delays cut short by backlog pressure
	Delivered      uint64

	// RailFrames is the per-rail frame count, indexed like Rails().
	RailFrames []uint64

	// Resilience surface: what the failure machinery has been doing.
	FramesReclaimed uint64   // frames handed back by failing rails
	Failovers       uint64   // reclaimed/refused frames re-posted on a live rail
	FailoverQueued  int      // frames still waiting for any rail to their peer
	RdvRetries      uint64   // rendezvous RTS retries fired
	RailDowns       []uint64 // per-rail peer-down events, indexed like Rails()

	// Tenants is the per-tenant admission surface, one entry per tenant
	// with admission state, ordered by tenant id. Empty when the engine
	// has no quota table. The controller's quota multiplier loop reads
	// backlog pressure from here; telemetry exports it per node and rolls
	// it up per fleet.
	Tenants []TenantMetrics

	// The tuning in effect.
	Lookahead       int
	NagleDelay      simnet.Duration
	NagleFlushCount int
	SearchBudget    int
	RdvThreshold    int
	Bundle          string
	// Shards is the engine's pump-shard count (1 = the legacy serialized
	// layout). Constant for the engine's lifetime; snapshotted so fleet
	// telemetry can tell sharded and serialized nodes apart.
	Shards int
}

// TenantMetrics is one tenant's slice of the admission surface: the quota
// in effect, the live backlog charge, and the admit/refuse tallies since
// the tenant was configured.
type TenantMetrics struct {
	Tenant    packet.TenantID
	Submitted uint64 // packets admitted
	Throttled uint64 // rate refusals (ErrThrottled)
	OverQuota uint64 // backlog-quota refusals (ErrQuotaExceeded)
	Backlog   int64  // eager packets admitted and not yet planned

	// Quota echo, so observers see rate limit and pressure in one row.
	RatePPS      float64
	Burst        int
	BacklogQuota int
}

// Metrics returns a consistent snapshot of the engine's observation surface.
func (e *Engine) Metrics() Metrics {
	var m Metrics
	e.MetricsInto(&m)
	return m
}

// MetricsInto fills m with a snapshot, reusing m's RailFrames and RailDowns
// backing arrays when they have capacity. Samplers that snapshot every node
// per tick (internal/control, the testnet's telemetry sweep) hold one
// scratch Metrics per engine and pay zero allocations per sample;
// Metrics() is the convenience form for one-shot callers. Callers that
// retain a previous snapshot for windowed deltas must keep two scratch
// values and alternate — the slices are overwritten in place.
//
// On a sharded engine the snapshot is a merge: each shard is summed under
// its own lock, then the protocol-side tallies are read under pmu. Each
// shard's contribution is internally consistent, but the merge is not one
// global atomic cut — totals are exact once the engine quiesces, and
// monotone per shard while it runs, which is all the windowed-delta
// controllers need. With one shard (the deterministic-simulation layout)
// every upcall is serialized anyway and the snapshot is exact, as before.
func (e *Engine) MetricsInto(m *Metrics) {
	tun := e.tun.Load()
	*m = Metrics{
		Now:             e.rt.Now(),
		IdleUpcalls:     e.idleUps.Load(),
		RailFrames:      m.RailFrames[:0],
		RailDowns:       m.RailDowns[:0],
		Tenants:         m.Tenants[:0],
		Lookahead:       tun.lookahead,
		NagleDelay:      tun.nagleDelay,
		NagleFlushCount: tun.nagleFlush,
		SearchBudget:    tun.searchBudget,
		RdvThreshold:    tun.rdvThreshold,
		Bundle:          e.bundle.Load().Name,
		Shards:          len(e.shards),
	}
	for range e.rails {
		m.RailFrames = append(m.RailFrames, 0)
	}
	for _, s := range e.shards {
		s.mergeInto(m)
	}
	if a := e.adm.Load(); a != nil {
		for _, ts := range a.states {
			if ts == nil {
				continue
			}
			q := ts.quota.Load()
			m.Tenants = append(m.Tenants, TenantMetrics{
				Tenant:       ts.id,
				Submitted:    ts.submitted.Load(),
				Throttled:    ts.throttled.Load(),
				OverQuota:    ts.overQuota.Load(),
				Backlog:      ts.backlog.Load(),
				RatePPS:      q.Rate,
				Burst:        q.Burst,
				BacklogQuota: q.Backlog,
			})
		}
	}
	e.pmu.Lock()
	m.Delivered = e.ctrDelivered
	m.RdvRetries = e.ctrRdvRetries
	m.RailDowns = append(m.RailDowns, e.railDowns...)
	e.pmu.Unlock()
}

// RetuneEvent describes one runtime tuning change, delivered to the
// engine's retune observer: which knob moved and how.
type RetuneEvent struct {
	At   simnet.Time
	Knob string // "bundle", "lookahead", "nagle", "budget", "rdv-threshold", "rail-weights", "tenant-quota"
	Note string // human-readable "knob=value" rendering
}

// SetRetuneObserver installs fn to be called after every runtime tuning
// change (SetBundle, SetLookahead, SetNagle, SetSearchBudget,
// SetRdvThreshold, SetRailWeights). Pass nil to remove it. The observer runs outside the
// engine locks and may call back into the engine.
func (e *Engine) SetRetuneObserver(fn func(RetuneEvent)) {
	e.pmu.Lock()
	e.retuneObs = fn
	e.pmu.Unlock()
}

// retuneObserver reads the installed observer under pmu.
func (e *Engine) retuneObserver() func(RetuneEvent) {
	e.pmu.Lock()
	obs := e.retuneObs
	e.pmu.Unlock()
	return obs
}

// notifyRetune records the change on the trace and invokes the observer.
// Call without holding any engine lock.
func (e *Engine) notifyRetune(ev RetuneEvent) {
	e.rec.Record(trace.Event{At: ev.At, Kind: trace.KindPolicy, Node: e.node, Note: ev.Note})
	if obs := e.retuneObserver(); obs != nil {
		obs(ev)
	}
}
