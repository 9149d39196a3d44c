package cluster

import (
	"net/http"

	"repro/internal/serve"
)

// ShardStats is one backend's health and traffic snapshot.
type ShardStats struct {
	Backend      string `json:"backend"`
	State        string `json:"state"` // active | suspect | ejected
	Breaker      string `json:"breaker"`
	BreakerFails int    `json:"breakerConsecutiveFails"`
	Requests     int64  `json:"requests"`
	Failures     int64  `json:"failures"`
	Hedges       int64  `json:"hedges"`
	HedgeWins    int64  `json:"hedgeWins"`
	Ejections    int64  `json:"ejections,omitempty"`
}

// MembershipStats is the live-membership block of /v1/stats: epoch
// bookkeeping and prober verdicts.
type MembershipStats struct {
	Epoch        int64         `json:"epoch"`
	EpochSwaps   int64         `json:"epochSwaps"`
	Members      int           `json:"members"`  // known, any state
	Routable     int           `json:"routable"` // on the current ring
	Joins        int64         `json:"joins"`
	Leaves       int64         `json:"leaves"`
	Probes       int64         `json:"probes"`
	ProbeFails   int64         `json:"probeFailures"`
	Ejections    int64         `json:"ejections"`
	Readmissions int64         `json:"readmissions"`
	EpochHistory []epochRecord `json:"epochHistory,omitempty"`
}

// Stats is the GET /v1/stats (and /varz) cluster snapshot: the hedge,
// failover, and breaker counters the chaos harness asserts on, the
// cache and warm-store gauges, and the membership/epoch block.
type Stats struct {
	Ready         bool    `json:"ready"`
	Draining      bool    `json:"draining"`
	UptimeSeconds float64 `json:"uptimeSeconds"`
	Backends      int     `json:"backends"` // routable members this epoch
	Replicas      int     `json:"replicas"`

	// Requests counts the pipeline's requests: every endpoint but health,
	// stats and membership.
	Requests int64 `json:"requests"`
	// KeyedRequests counts single keyed requests (classify, solvable,
	// net solvable); batch items are counted in BatchItems.
	KeyedRequests int64 `json:"keyedRequests"`

	// CacheHits and CacheMisses count keyed lookups, single requests
	// and batch items alike; each is one or the other, and a lookup
	// that joined another's computation is a miss.
	CacheHits   int64 `json:"cacheHits"`
	CacheMisses int64 `json:"cacheMisses"`
	CacheLen    int   `json:"cacheEntries"`
	WarmLoaded  int   `json:"warmLoaded"`
	WarmStored  int   `json:"warmStored"`

	Hedges       int64 `json:"hedges"`
	HedgeWins    int64 `json:"hedgeWins"`
	Failovers    int64 `json:"failovers"`
	BreakerSkips int64 `json:"breakerSkips"`
	Exhausted    int64 `json:"exhausted"`

	BatchRequests int64 `json:"batchRequests"`
	BatchItems    int64 `json:"batchItems"`

	Membership MembershipStats `json:"membership"`

	Shards []ShardStats `json:"shards"`
}

// StatsSnapshot assembles the current cluster stats. Shards lists every
// known member (ejected ones included — their counters explain the
// traffic they took before ejection).
func (c *Coordinator) StatsSnapshot() Stats {
	view := c.currentView()
	v := c.srv.Varz()
	misses := v.CacheMisses + v.SingleflightShared
	st := Stats{
		Ready:         v.Ready,
		Draining:      v.Draining,
		UptimeSeconds: v.UptimeSeconds,
		Backends:      len(view.shards),
		Replicas:      c.cfg.Replicas,
		Requests:      v.Requests,
		KeyedRequests: c.m.keyed.Load(),
		CacheHits:     v.CacheHits,
		CacheMisses:   misses,
		CacheLen:      v.CacheEntries,
		WarmLoaded:    v.WarmLoaded,
		WarmStored:    v.WarmStored,
		Hedges:        c.m.hedges.Load(),
		HedgeWins:     c.m.hedgeWins.Load(),
		Failovers:     c.m.failovers.Load(),
		BreakerSkips:  c.m.breakerSkips.Load(),
		Exhausted:     c.m.exhausted.Load(),
		BatchRequests: v.BatchRequests,
		BatchItems:    v.BatchItems,
	}
	st.Membership = MembershipStats{
		Epoch:        view.seq,
		EpochSwaps:   c.m.epochSwaps.Load(),
		Routable:     len(view.shards),
		Joins:        c.m.joins.Load(),
		Leaves:       c.m.leaves.Load(),
		Probes:       c.m.probes.Load(),
		ProbeFails:   c.m.probeFailures.Load(),
		Ejections:    c.m.ejections.Load(),
		Readmissions: c.m.readmissions.Load(),
	}

	c.memMu.Lock()
	st.Membership.Members = len(c.members)
	st.Membership.EpochHistory = append([]epochRecord(nil), c.epochHist...)
	for _, base := range c.memOrder {
		m := c.members[base]
		state, fails := m.sh.brk.Snapshot()
		st.Shards = append(st.Shards, ShardStats{
			Backend:      base,
			State:        m.state.String(),
			Breaker:      state,
			BreakerFails: fails,
			Requests:     m.sh.requests.Load(),
			Failures:     m.sh.failures.Load(),
			Hedges:       m.sh.hedges.Load(),
			HedgeWins:    m.sh.hedgeWins.Load(),
			Ejections:    m.ejections,
		})
	}
	c.memMu.Unlock()
	return st
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, c.StatsSnapshot())
}
