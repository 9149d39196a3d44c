package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync"

	"repro/internal/serve"
	"repro/internal/serve/wire"
)

// Batch endpoints on the coordinator — /v1/solve/batch,
// /v1/net/solve/batch, /v1/chaos/batch — mirror the node's batch tier
// and parse through the same serve class declarations: items are keyed
// and routed INDIVIDUALLY, each miss fanning out to its own shard's
// replica set through the normal hedged path, so per-shard breakers,
// hedging, and failover all operate per item, not per batch.
// Cache hits go out together, flushed once before the fan-out
// (cacheable classes only; chaos campaigns always fan out); misses
// stream as each shard answers. Lines carry the originating item
// index, so arrival order is completion order. The stream is JSON lines by default and BatchLine frames when
// the caller negotiated application/x-capverdict-stream. Shards answer
// every item with a frame of the endpoint's kind (anything else is a
// per-item 502, never cached); binary callers get the frame payload
// embedded verbatim, JSON callers its FrameToJSON rendering.

// batchFanout bounds how many misses of one batch are in flight against
// the shards at once.
const batchFanout = 8

// clusterBatchMax caps the item count of one coordinator batch. It is
// intentionally the same default as a single node's MaxBatchItems: the
// coordinator splits the batch per item anyway, so a bigger cap would
// only defer the backends' own limits.
const clusterBatchMax = 64

// batchEmitter serializes stream lines from the fan-out workers and
// owns the caller-side encoding choice.
type batchEmitter struct {
	mu      sync.Mutex
	w       http.ResponseWriter
	flusher http.Flusher
	binary  bool
}

// verdictFor shapes a checked frame body for the stream: a wire.Raw for
// binary callers, its JSON rendering for JSON callers. A payload that
// does not decode is dropped to an error line by the caller.
func (e *batchEmitter) verdictFor(body []byte) (any, bool) {
	if e.binary {
		kind, payload, _, err := wire.DecodeFrame(body)
		return wire.Raw{Kind: kind, Payload: payload}, err == nil
	}
	j, err := wire.FrameToJSON(body, "")
	return json.RawMessage(j), err == nil
}

func (e *batchEmitter) emit(line wire.BatchLine) {
	var out []byte
	var err error
	if e.binary {
		out, err = wire.AppendVerdict(nil, &line)
	} else {
		out, err = json.Marshal(line)
		out = append(out, '\n')
	}
	if err != nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.w.Write(out)
	if e.flusher != nil {
		e.flusher.Flush()
	}
}

// batchHandler builds the coordinator batch endpoint for one class:
// the class's batch parse (one typed strict decode: a JSON-shape error
// in any item is a whole-batch 400, a resolve error a per-item 400
// line), then each item goes to the class's single-item endpoint.
func (c *Coordinator) batchHandler(cl *serve.Class) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		c.m.requests.Add(1)
		body, err := readBody(w, r)
		if err != nil {
			c.writeError(w, http.StatusBadRequest, "bad request: %v", err)
			return
		}
		items, err := cl.ParseBatch(body)
		if err != nil {
			c.writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if len(items) == 0 {
			c.writeError(w, http.StatusBadRequest, "batch needs at least one item")
			return
		}
		if len(items) > clusterBatchMax {
			c.writeError(w, http.StatusBadRequest, "batch of %d items exceeds cap %d", len(items), clusterBatchMax)
			return
		}
		c.m.batches.Add(1)
		c.m.batchItems.Add(int64(len(items)))

		e := &batchEmitter{w: w, binary: acceptsWireStream(r)}
		if e.binary {
			w.Header().Set("Content-Type", wire.MediaTypeVerdictStream)
		} else {
			w.Header().Set("Content-Type", "application/x-ndjson")
		}
		w.WriteHeader(http.StatusOK)

		// First pass: serve cache/warm hits inline and queue the rest,
		// re-encoded as single-endpoint bodies, for the shard fan-out.
		type missItem struct {
			index int
			key   string // cache key; "" for uncacheable chaos
			route string // ring key
			body  []byte
		}
		var misses []missItem
		for i, q := range items {
			if q.Err != nil {
				e.emit(wire.BatchLine{Index: i, Status: http.StatusBadRequest, Error: q.Err.Error()})
				continue
			}
			if q.Key != "" {
				if raw, ok := c.stored(q.Key); ok {
					c.emitStored(e, i, raw)
					continue
				}
			}
			payload, err := q.Body()
			if err != nil {
				e.emit(wire.BatchLine{Index: i, Status: http.StatusInternalServerError, Error: err.Error()})
				continue
			}
			route := q.Key
			if route == "" {
				// Uncacheable class (chaos): routed by body hash.
				route = "chaos|" + string(payload)
			}
			misses = append(misses, missItem{index: i, key: q.Key, route: route, body: payload})
		}
		if len(misses) == 0 {
			return
		}
		// Every later line waits on a shard round trip: send the first
		// pass's lines now, and from here on flush each line as it lands.
		if e.flusher, _ = w.(http.Flusher); e.flusher != nil {
			e.flusher.Flush()
		}

		// Second pass: each miss routes by its own key and goes through
		// hedgedDo independently — one slow or broken shard only delays
		// the items that hash to it. The epoch view is captured once, so
		// a membership swap mid-batch cannot split one batch across
		// rings.
		view := c.currentView()
		sem := make(chan struct{}, batchFanout)
		var wg sync.WaitGroup
		for _, ms := range misses {
			wg.Add(1)
			sem <- struct{}{}
			go func(ms missItem) {
				defer wg.Done()
				defer func() { <-sem }()
				res, err := c.hedgedDo(r.Context(), cl.Path, wire.AcceptVerdict, ms.body, view, view.ring.Replicas(ms.route, c.cfg.Replicas))
				if err != nil {
					e.emit(batchErrLine(ms.index, err))
					return
				}
				if res.status >= 400 {
					msg, diag := shardError(res.body)
					e.emit(wire.BatchLine{Index: ms.index, Status: res.status, Error: msg, DiagID: diag})
					return
				}
				if !verdictOK(cl.Kind, res.body) {
					e.emit(wire.BatchLine{Index: ms.index, Status: http.StatusBadGateway,
						Error: "shard returned an unusable verdict"})
					return
				}
				if ms.key != "" {
					c.cache.Put(ms.key, res.body)
					c.persistWarm(ms.key, res.body)
				}
				v, ok := e.verdictFor(res.body)
				if !ok {
					e.emit(wire.BatchLine{Index: ms.index, Status: http.StatusBadGateway,
						Error: "shard returned an undecodable verdict"})
					return
				}
				e.emit(wire.BatchLine{Index: ms.index, Status: http.StatusOK, Verdict: v})
			}(ms)
		}
		wg.Wait()
	}
}

// emitStored streams a coordinator cache hit. Cached marks the
// coordinator's tier — the embedded verdict is the shard's original
// reply, so its own cached flag reflects the backend's cache.
func (c *Coordinator) emitStored(e *batchEmitter, index int, body []byte) {
	v, ok := e.verdictFor(body)
	if !ok {
		e.emit(wire.BatchLine{Index: index, Status: http.StatusBadGateway,
			Error: "cached verdict is undecodable"})
		return
	}
	e.emit(wire.BatchLine{Index: index, Status: http.StatusOK, Cached: true, Verdict: v})
}

// batchErrLine maps a hedged-request failure onto the per-item status
// writeHedgeError would have used for a whole request.
func batchErrLine(index int, err error) wire.BatchLine {
	var broken errAllShardsBroken
	switch {
	case errors.As(err, &broken):
		return wire.BatchLine{Index: index, Status: http.StatusServiceUnavailable, Error: broken.Error()}
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return wire.BatchLine{Index: index, Status: http.StatusGatewayTimeout, Error: "cluster request deadline exceeded"}
	default:
		return wire.BatchLine{Index: index, Status: http.StatusBadGateway, Error: err.Error()}
	}
}
