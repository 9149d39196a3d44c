package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/chaos"
	"repro/internal/serve"
)

// chaosShardReply decodes just what the merge needs, keeping the
// violation stanzas raw so nothing a backend reports is lost in
// transit.
type chaosShardReply struct {
	Scheme     string            `json:"scheme"`
	Algorithm  string            `json:"algorithm"`
	Seed       int64             `json:"seed"`
	Executions int               `json:"executions"`
	Rounds     int64             `json:"rounds"`
	OK         bool              `json:"ok"`
	Violations []json.RawMessage `json:"violations,omitempty"`
}

// ShardOutcome is the per-shard accounting in a fan-out reply.
type ShardOutcome struct {
	Backend    string `json:"backend"`
	Executions int    `json:"executions"`        // completed on this shard
	Planned    int    `json:"planned"`           // assigned to this shard
	Seed       int64  `json:"seed"`              // the shard's derived master seed
	OK         *bool  `json:"ok,omitempty"`      // campaign verdict; nil when the shard failed
	Skipped    bool   `json:"skipped,omitempty"` // breaker refused the shard up front
	Error      string `json:"error,omitempty"`   // transport / HTTP failure
	ElapsedMs  int64  `json:"elapsedMs,omitempty"`
}

// chaosClusterResponse is the merged fan-out/fan-in campaign report.
// Partial is the honest bit: a killed shard does not fail the campaign,
// it shrinks it, and ExecutionsPlanned vs Executions says by how much.
type chaosClusterResponse struct {
	Scheme            string            `json:"scheme"`
	Algorithm         string            `json:"algorithm,omitempty"`
	Seed              int64             `json:"seed"`
	Executions        int               `json:"executions"`
	ExecutionsPlanned int               `json:"executionsPlanned"`
	Rounds            int64             `json:"rounds"`
	OK                bool              `json:"ok"`
	Partial           bool              `json:"partial"`
	Violations        []json.RawMessage `json:"violations,omitempty"`
	Shards            []ShardOutcome    `json:"shards"`
	ElapsedMs         int64             `json:"elapsedMs"`
}

// handleChaos shards the seed space of a chaos campaign across every
// shard whose breaker admits it, runs the sub-campaigns concurrently,
// and merges the reports with partial-result accounting: a failed or
// skipped shard costs coverage, never the whole campaign — unless every
// shard fails: a 502, or the shard's own 4xx when a shard refused the
// campaign (a shard limit such as MaxExecutions).
func (c *Coordinator) handleChaos(w http.ResponseWriter, r *http.Request) {
	c.m.requests.Add(1)
	req, err := serve.ParseChaos(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Executions <= 0 {
		req.Executions = 1000 // mirror the backend default so sharding math is exact
	}

	start := c.cfg.Clock()
	c.m.fanouts.Add(1)

	// One routing view for the whole campaign: a membership change
	// mid-fan-out affects later requests, never this one's shard set.
	view := c.currentView()

	// Admit shards through their breakers; refused shards are recorded,
	// not waited for.
	type admitted struct {
		idx  int
		done func(failed bool)
	}
	var admit []admitted
	outcomes := make([]ShardOutcome, len(view.shards))
	for i, sh := range view.shards {
		outcomes[i] = ShardOutcome{Backend: sh.base}
		done, err := sh.brk.Acquire()
		if err != nil {
			outcomes[i].Skipped = true
			outcomes[i].Error = err.Error()
			c.m.breakerSkips.Add(1)
			continue
		}
		admit = append(admit, admitted{idx: i, done: done})
	}
	if len(admit) == 0 {
		serve.WriteError(w, http.StatusServiceUnavailable, "all shard breakers open")
		return
	}

	// Shard the seed space: executions split as evenly as possible, each
	// shard's campaign running under its own SplitMix64-derived master
	// seed, so the union of shard executions is deterministic given
	// (seed, shard count) and any single shard replays independently.
	base, rem := req.Executions/len(admit), req.Executions%len(admit)
	ctx, cancel := c.boundedCtx(r.Context())
	defer cancel()

	replies := make([]*chaosShardReply, len(view.shards))
	// rejects holds each shard's client-shaped (4xx, not shed) reply:
	// the shards' limits, which the coordinator does not know, refused
	// the campaign.
	rejects := make([]*attemptResult, len(view.shards))
	var wgLocal sync.WaitGroup
	for j, ad := range admit {
		n := base
		if j < rem {
			n++
		}
		outcomes[ad.idx].Planned = n
		if n == 0 {
			ad.done(false)
			continue
		}
		shardReq := *req
		shardReq.Executions = n
		shardReq.Seed = chaos.DeriveSeed(req.Seed, 1_000_000+ad.idx)
		outcomes[ad.idx].Seed = shardReq.Seed
		payload, err := json.Marshal(&shardReq)
		if err != nil {
			ad.done(false)
			outcomes[ad.idx].Error = err.Error()
			continue
		}
		wgLocal.Add(1)
		c.wg.Add(1)
		go func(ad admitted, payload []byte) {
			defer wgLocal.Done()
			defer c.wg.Done()
			sh := view.shards[ad.idx]
			sh.requests.Add(1)
			t0 := c.cfg.Clock()
			res := c.attempt(ctx, sh, "/v1/chaos", "", payload)
			outcomes[ad.idx].ElapsedMs = c.cfg.Clock().Sub(t0).Milliseconds()
			failed := res.err != nil || res.status >= 500
			if failed {
				sh.failures.Add(1)
			}
			ad.done(failed)
			switch {
			case res.err != nil:
				outcomes[ad.idx].Error = res.err.Error()
			case res.status != http.StatusOK:
				msg, _ := shardError(res.body)
				outcomes[ad.idx].Error = fmt.Sprintf("HTTP %d: %s", res.status, msg)
				if res.status < 500 && res.status != http.StatusTooManyRequests {
					rejects[ad.idx] = &res
				}
			default:
				var rep chaosShardReply
				if err := json.Unmarshal(res.body, &rep); err != nil {
					outcomes[ad.idx].Error = fmt.Sprintf("bad shard reply: %v", err)
					return
				}
				replies[ad.idx] = &rep
			}
		}(ad, payload)
	}
	wgLocal.Wait()

	resp := chaosClusterResponse{
		Seed:              req.Seed,
		ExecutionsPlanned: req.Executions,
		OK:                true,
		Shards:            outcomes,
		ElapsedMs:         c.cfg.Clock().Sub(start).Milliseconds(),
	}
	completed := 0
	for i := range view.shards {
		rep := replies[i]
		if rep == nil {
			if outcomes[i].Planned > 0 || outcomes[i].Skipped {
				resp.Partial = true
				c.m.fanoutFailures.Add(1)
			}
			continue
		}
		completed++
		ok := rep.OK
		outcomes[i].OK = &ok
		outcomes[i].Executions = rep.Executions
		resp.Scheme = rep.Scheme
		resp.Algorithm = rep.Algorithm
		resp.Executions += rep.Executions
		resp.Rounds += rep.Rounds
		resp.OK = resp.OK && rep.OK
		resp.Violations = append(resp.Violations, rep.Violations...)
	}
	resp.Shards = outcomes
	if completed == 0 {
		c.m.fanoutPartials.Add(1)
		for _, rej := range rejects {
			if rej != nil {
				// Every shard failed and one refused the request itself:
				// answer with its rejection, as a lone node would.
				msg, _ := shardError(rej.body)
				serve.WriteError(w, rej.status, "%s", msg)
				return
			}
		}
		serve.WriteError(w, http.StatusBadGateway, "chaos fan-out: every shard failed")
		return
	}
	if resp.Partial {
		c.m.fanoutPartials.Add(1)
	}
	serve.WriteJSON(w, http.StatusOK, resp)
}

func truncate(b []byte, n int) string {
	if len(b) <= n {
		return string(b)
	}
	return string(b[:n]) + "…"
}
