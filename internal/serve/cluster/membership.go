package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"time"

	"repro/internal/serve"
)

// Member lifecycle states. Routing eligibility is the state's one hard
// consequence: active and suspect members are on the ring, ejected
// members are off it (but still probed, so they can come back).
//
//	active ──(probe fails)──▶ suspect ──(K consecutive fails)──▶ ejected
//	  ▲                         │                                  │
//	  └──────(probe ok)─────────┘        (M consecutive oks)       │
//	  └────────────────────◀───────────────────────────────────────┘
//
// Admin add/remove are orthogonal: POST /v1/cluster/members introduces
// a new active member, DELETE forgets one entirely (any state).
type memberState int32

const (
	memberActive memberState = iota
	memberSuspect
	memberEjected
)

func (s memberState) String() string {
	switch s {
	case memberSuspect:
		return "suspect"
	case memberEjected:
		return "ejected"
	default:
		return "active"
	}
}

// member is one known backend: its shard (breaker + counters, shared by
// every epoch that routes to it) plus the probe lifecycle bookkeeping.
// All fields except sh are guarded by Coordinator.memMu.
type member struct {
	sh         *shard
	state      memberState
	probeFails int // consecutive probe failures
	probeOKs   int // consecutive probe successes while ejected
	ejections  int64
	joinedAt   time.Time
}

// epochView is one immutable membership epoch: the ring plus the
// index-aligned shard slice it routes over. Swapped atomically
// (Coordinator.view) on every membership change; in-flight requests
// that captured an older view finish on it — shard structs are shared
// across epochs, so their breakers and counters stay coherent.
type epochView struct {
	seq    int64
	ring   *Ring
	bases  []string
	shards []*shard
}

// epochRecord is one line of the bounded epoch history surfaced in
// /v1/stats: why the ring changed and what it changed to.
type epochRecord struct {
	Seq     int64     `json:"epoch"`
	Reason  string    `json:"reason"`
	Members int       `json:"routableMembers"`
	At      time.Time `json:"at"`
}

// maxEpochHistory bounds the retained epoch records.
const maxEpochHistory = 16

// currentView returns the routing view for this instant. Never nil
// after New.
func (c *Coordinator) currentView() *epochView {
	return c.view.Load()
}

// rebuild recomputes the epoch view from the member table and swaps it
// in. Caller holds c.memMu. reason is recorded in the epoch history.
func (c *Coordinator) rebuild(reason string) {
	var bases []string
	var shards []*shard
	for _, base := range c.memOrder {
		m := c.members[base]
		if m.state == memberEjected {
			continue
		}
		bases = append(bases, base)
		shards = append(shards, m.sh)
	}
	old := c.view.Load()
	seq := int64(1)
	if old != nil {
		seq = old.seq + 1
	}
	v := &epochView{
		seq:    seq,
		ring:   NewRing(bases, c.cfg.VNodes),
		bases:  bases,
		shards: shards,
	}
	c.view.Store(v)
	c.m.epochSwaps.Add(1)
	c.epochHist = append(c.epochHist, epochRecord{
		Seq: seq, Reason: reason, Members: len(bases), At: c.cfg.Clock(),
	})
	if len(c.epochHist) > maxEpochHistory {
		c.epochHist = c.epochHist[len(c.epochHist)-maxEpochHistory:]
	}
	c.cfg.Logf("coordinator: epoch %d (%s): %d routable members", seq, reason, len(bases))
}

// normalizeBase canonicalizes a backend base URL for use as the member
// identity.
func normalizeBase(base string) (string, error) {
	base = strings.TrimSuffix(strings.TrimSpace(base), "/")
	if base == "" {
		return "", fmt.Errorf("cluster: empty backend URL")
	}
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		return "", fmt.Errorf("cluster: backend %q is not an http(s) URL", base)
	}
	return base, nil
}

// AddBackend introduces a new backend into the live membership: it
// joins as an active member of a fresh epoch. Errors if the backend is
// already a member.
func (c *Coordinator) AddBackend(base string) error {
	base, err := normalizeBase(base)
	if err != nil {
		return err
	}
	c.memMu.Lock()
	defer c.memMu.Unlock()
	if _, dup := c.members[base]; dup {
		return fmt.Errorf("cluster: backend %s is already a member", base)
	}
	c.members[base] = &member{sh: c.newShard(base), state: memberActive, joinedAt: c.cfg.Clock()}
	c.memOrder = append(c.memOrder, base)
	c.rebuild("join " + base)
	c.m.joins.Add(1)
	return nil
}

// RemoveBackend forgets a backend entirely: off the ring, no longer
// probed, its breaker and counters dropped. In-flight requests on older
// epochs finish against it. Refuses to remove the last member.
func (c *Coordinator) RemoveBackend(base string) error {
	base, err := normalizeBase(base)
	if err != nil {
		return err
	}
	c.memMu.Lock()
	defer c.memMu.Unlock()
	if _, ok := c.members[base]; !ok {
		return fmt.Errorf("cluster: backend %s is not a member", base)
	}
	if len(c.members) == 1 {
		return fmt.Errorf("cluster: refusing to remove the last member %s", base)
	}
	delete(c.members, base)
	c.memOrder = slices.DeleteFunc(c.memOrder, func(b string) bool { return b == base })
	c.rebuild("leave " + base)
	c.m.leaves.Add(1)
	return nil
}

// MemberInfo is one member's admin/stats snapshot.
type MemberInfo struct {
	Backend    string    `json:"backend"`
	State      string    `json:"state"`
	Routable   bool      `json:"routable"`
	Breaker    string    `json:"breaker"`
	ProbeFails int       `json:"probeConsecutiveFails,omitempty"`
	Ejections  int64     `json:"ejections,omitempty"`
	JoinedAt   time.Time `json:"joinedAt"`
	Requests   int64     `json:"requests"`
	Failures   int64     `json:"failures"`
	Hedges     int64     `json:"hedges"`
	HedgeWins  int64     `json:"hedgeWins"`
}

// membersResponse is the GET /v1/cluster/members body.
type membersResponse struct {
	Epoch    int64        `json:"epoch"`
	Members  []MemberInfo `json:"members"`
	Routable int          `json:"routable"`
}

// Members snapshots the full member table (any state) in join order.
func (c *Coordinator) Members() membersResponse {
	c.memMu.Lock()
	defer c.memMu.Unlock()
	view := c.view.Load()
	resp := membersResponse{Epoch: view.seq, Routable: len(view.shards)}
	for _, base := range c.memOrder {
		m := c.members[base]
		state, _ := m.sh.brk.Snapshot()
		resp.Members = append(resp.Members, MemberInfo{
			Backend:    base,
			State:      m.state.String(),
			Routable:   m.state != memberEjected,
			Breaker:    state,
			ProbeFails: m.probeFails,
			Ejections:  m.ejections,
			JoinedAt:   m.joinedAt,
			Requests:   m.sh.requests.Load(),
			Failures:   m.sh.failures.Load(),
			Hedges:     m.sh.hedges.Load(),
			HedgeWins:  m.sh.hedgeWins.Load(),
		})
	}
	return resp
}

// Admin surface: live membership as three verbs on one resource.
//
//	GET    /v1/cluster/members                  → the table + epoch
//	POST   /v1/cluster/members {"backend": u}   → join u (new epoch)
//	DELETE /v1/cluster/members?backend=u        → leave u (new epoch)
func (c *Coordinator) handleMembersGet(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, c.Members())
}

func (c *Coordinator) handleMembersPost(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Backend string `json:"backend"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		serve.WriteError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	if err := c.AddBackend(req.Backend); err != nil {
		code := http.StatusBadRequest
		if strings.Contains(err.Error(), "already a member") {
			code = http.StatusConflict
		}
		serve.WriteError(w, code, "%v", err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, c.Members())
}

func (c *Coordinator) handleMembersDelete(w http.ResponseWriter, r *http.Request) {
	base := r.URL.Query().Get("backend")
	if base == "" {
		serve.WriteError(w, http.StatusBadRequest, "cluster: ?backend= query parameter required")
		return
	}
	if err := c.RemoveBackend(base); err != nil {
		code := http.StatusBadRequest
		switch {
		case strings.Contains(err.Error(), "not a member"):
			code = http.StatusNotFound
		case strings.Contains(err.Error(), "last member"):
			code = http.StatusConflict
		}
		serve.WriteError(w, code, "%v", err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, c.Members())
}
