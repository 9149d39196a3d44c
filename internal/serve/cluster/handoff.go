package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/serve/wire"
)

// Warm handoff: when a backend joins the ring (admin POST) or is
// readmitted after an ejection, it starts cold for the key range the
// new epoch assigns to it — every request it now owns would be an
// engine miss until its caches refill. The handoff turns that latency
// cliff into a bounded rebalance: the coordinator replays warm verdicts
// for the newcomer's key range, sourced from its own LRU plus exports
// pulled from the newcomer's ring neighbors — the shards that, as hedge/failover targets, most
// likely answered those keys while the newcomer was away.
//
// The handoff is best-effort and bounded (HandoffMaxEntries keys,
// HandoffTimeout wall clock): verdicts are deterministic facts, so a
// truncated or failed handoff costs recomputation, never correctness.

// handoffNeighbors is how many ring successors a handoff pulls exports
// from. Matching Config.Replicas would be natural, but 2 keeps the
// fan-in bounded even on wide replica configs.
const handoffNeighbors = 2

// startHandoff launches the asynchronous warm handoff for base, which
// must be a routable member of view. Called outside memMu.
func (c *Coordinator) startHandoff(base string, view *epochView) {
	if c.cfg.HandoffMaxEntries < 0 || view == nil {
		c.m.handoffSkipped.Add(1)
		return
	}
	idx := -1
	for i, b := range view.bases {
		if b == base {
			idx = i
			break
		}
	}
	if idx < 0 || len(view.bases) < 2 {
		// Not routable in this view (raced with an eject), or there is no
		// peer to be warmed from.
		c.m.handoffSkipped.Add(1)
		return
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		ctx, cancel := context.WithTimeout(c.baseCtx, c.cfg.HandoffTimeout)
		defer cancel()
		n, err := c.handoff(ctx, view, idx)
		if err != nil {
			c.m.handoffErrors.Add(1)
			c.cfg.Logf("coordinator: handoff to %s failed: %v", base, err)
			return
		}
		c.m.handoffs.Add(1)
		c.m.handoffKeys.Add(int64(n))
		c.cfg.Logf("coordinator: handoff to %s: %d warm verdicts", base, n)
	}()
}

// handoff collects warm verdicts owned by member idx in view and pushes
// them to that backend. Returns how many entries were sent.
func (c *Coordinator) handoff(ctx context.Context, view *epochView, idx int) (int, error) {
	target := view.shards[idx]
	limit := c.cfg.HandoffMaxEntries

	// Collect candidates: the coordinator's LRU first (cheap, local, most
	// recent first), then neighbor exports.
	collected := make(map[string][]byte)
	owns := func(key string) bool { return view.ring.Owner(key) == idx }

	c.cache.Range(func(k string, v any) bool {
		if len(collected) >= limit {
			return false
		}
		if owns(k) {
			collected[k] = v.([]byte)
		}
		return true
	})

	for _, nb := range view.ring.Successors(idx, handoffNeighbors) {
		if len(collected) >= limit {
			break
		}
		exported := 0
		err := c.pullExport(ctx, view.shards[nb].base, func(k string, v []byte) bool {
			if len(collected) >= limit {
				return false
			}
			if _, dup := collected[k]; !dup && owns(k) {
				collected[k] = v
				exported++
			}
			return true
		})
		view.shards[nb].exportedKeys.Add(int64(exported))
		if err != nil {
			// A dead neighbor must not sink the handoff; the local LRU
			// and other neighbors still contribute.
			c.cfg.Logf("coordinator: handoff export from %s: %v", view.shards[nb].base, err)
		}
	}
	if len(collected) == 0 {
		return 0, nil
	}

	// Entries travel as a warm segment: values go out exactly as stored
	// — wire frames, or JSON bodies for classify — with no transcoding.
	payload := wire.AppendSegmentHeader(nil)
	for k, v := range collected {
		payload = wire.AppendSegmentRecord(payload, k, v)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target.base+"/v1/warm/import", bytes.NewReader(payload))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", wire.MediaTypeWarmSegment)
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf, err := client.ReadBounded(resp.Body, 1<<20)
	if err != nil {
		return 0, fmt.Errorf("reading import reply: %w", err)
	}
	defer client.ReleaseBuffer(buf)
	body := buf.Bytes()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("import returned HTTP %d: %s", resp.StatusCode, truncate(body, 200))
	}
	var rep serve.WarmImportResponse
	if err := json.Unmarshal(body, &rep); err != nil {
		return 0, fmt.Errorf("bad import reply: %w", err)
	}
	target.handoffKeys.Add(int64(rep.Imported))
	return len(collected), nil
}

// exportBodyLimit bounds one neighbor's warm export body.
const exportBodyLimit = 32 << 20

// pullExport streams a neighbor's warm export, bounded by the handoff
// entry budget, into fn until fn returns false. Records that arrived
// before a torn or failed stream stay collected.
func (c *Coordinator) pullExport(ctx context.Context, base string, fn func(k string, v []byte) bool) error {
	url := fmt.Sprintf("%s/v1/warm/export?max=%d", base, c.cfg.HandoffMaxEntries)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", wire.MediaTypeWarmSegment)
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("export returned HTTP %d: %s", resp.StatusCode, truncate(body, 200))
	}
	sr, err := wire.NewSegmentReader(io.LimitReader(resp.Body, exportBodyLimit))
	if err != nil {
		return fmt.Errorf("bad export segment: %w", err)
	}
	for {
		k, v, err := sr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("bad export segment: %w", err)
		}
		if !fn(k, v) {
			return nil
		}
	}
}
