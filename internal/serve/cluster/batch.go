package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync"

	"repro/internal/serve/wire"
)

// Batch endpoints on the coordinator — /v1/solve/batch,
// /v1/net/solve/batch, /v1/chaos/batch — mirror the node's batch tier:
// items are keyed and routed INDIVIDUALLY, each miss fanning out to its
// own shard's replica set through the normal hedged path, so per-shard
// breakers, hedging, and failover all operate per item, not per batch.
// Cache and warm hits stream immediately (cacheable classes only; chaos
// campaigns always fan out); misses stream as each shard answers. Lines
// carry the originating item index, so arrival order is completion
// order. The stream is JSON lines by default and BatchLine frames when
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

// chaosBatchKey validates one chaos item and returns the empty key:
// campaigns are uncacheable (seeded randomized runs), so items always
// fan out, routed by body hash.
func (c *Coordinator) chaosBatchKey(body []byte) (string, error) {
	var req chaosShardRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return "", err
	}
	if _, err := req.Resolve(); err != nil {
		return "", err
	}
	return "", nil
}

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

// batchHandler builds the coordinator batch endpoint for one heavy
// class: path is the single-item backend endpoint each item forwards
// to, kind the class's verdict frame kind, and keyOf validates an item
// and yields its cache key ("" marks the class uncacheable).
func (c *Coordinator) batchHandler(path string, kind wire.Kind, keyOf func([]byte) (string, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		c.m.requests.Add(1)
		body, err := readBody(w, r)
		if err != nil {
			c.writeError(w, http.StatusBadRequest, "bad request: %v", err)
			return
		}
		// Items stay raw: each one IS a single-endpoint body, forwarded
		// verbatim to whichever shard its key routes to.
		var req struct {
			Items []json.RawMessage `json:"items"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			c.writeError(w, http.StatusBadRequest, "bad request: %v", err)
			return
		}
		if len(req.Items) == 0 {
			c.writeError(w, http.StatusBadRequest, "batch needs at least one item")
			return
		}
		if len(req.Items) > clusterBatchMax {
			c.writeError(w, http.StatusBadRequest, "batch of %d items exceeds cap %d", len(req.Items), clusterBatchMax)
			return
		}
		c.m.batches.Add(1)
		c.m.batchItems.Add(int64(len(req.Items)))

		e := &batchEmitter{w: w, binary: acceptsWireStream(r)}
		if e.binary {
			w.Header().Set("Content-Type", wire.MediaTypeVerdictStream)
		} else {
			w.Header().Set("Content-Type", "application/x-ndjson")
		}
		w.WriteHeader(http.StatusOK)
		e.flusher, _ = w.(http.Flusher)

		// First pass: key every item; serve cache/warm tiers inline,
		// queue the rest for the shard fan-out.
		type missItem struct {
			index int
			key   string
			body  json.RawMessage
		}
		var misses []missItem
		for i, item := range req.Items {
			key, err := keyOf(item)
			if err != nil {
				e.emit(wire.BatchLine{Index: i, Status: http.StatusBadRequest, Error: err.Error()})
				continue
			}
			if key == "" {
				// Uncacheable class (chaos): straight to the fan-out,
				// routed by body hash.
				misses = append(misses, missItem{index: i, key: "", body: item})
				continue
			}
			if v, ok := c.cache.Get(key); ok {
				c.m.cacheHits.Add(1)
				c.emitStored(e, i, v.([]byte))
				continue
			}
			c.warmMu.RLock()
			raw, ok := c.warmMap[key]
			c.warmMu.RUnlock()
			if ok {
				c.m.cacheHits.Add(1)
				c.m.warmHits.Add(1)
				c.cache.Put(key, raw)
				c.emitStored(e, i, raw)
				continue
			}
			c.m.cacheMisses.Add(1)
			misses = append(misses, missItem{index: i, key: key, body: item})
		}
		if len(misses) == 0 {
			return
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
				routeKey := ms.key
				if routeKey == "" {
					routeKey = "chaos|" + string(ms.body)
				}
				res, err := c.hedgedDo(r.Context(), path, wire.AcceptVerdict, ms.body, view, view.ring.Replicas(routeKey, c.cfg.Replicas))
				if err != nil {
					e.emit(batchErrLine(ms.index, err))
					return
				}
				if res.status >= 400 {
					e.emit(wire.BatchLine{Index: ms.index, Status: res.status, Error: string(res.body)})
					return
				}
				if !verdictOK(kind, res.body) {
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

// emitStored streams a coordinator cache/warm hit. Cached marks the
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
