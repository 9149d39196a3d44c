package serve

import (
	"context"
	"net/http"
	"time"

	"repro/internal/serve/wire"
)

// Batch admission tier, shared by every heavy class:
//
//	POST /v1/solve/batch      — bounded-round solvability scenarios
//	POST /v1/net/solve/batch  — network solvability instances
//	POST /v1/chaos/batch      — seeded chaos campaigns
//
// N items are admitted under ONE heavy admission slot and ONE breaker
// settle, deduplicated against the LRU where the class is
// cacheable (and against each other — a repeated key inside the batch
// computes once), with per-item verdicts streamed in item order (the
// lines written so far are flushed once an item has waited
// batchFlushAfter on a computation): JSON lines by default, binary
// verdict frames when the caller negotiated them
// (Accept: application/x-capverdict-stream).
// A JSON-shape error in any item (unknown field, wrong type, trailing
// data) rejects the whole batch with 400. Everything after the decode
// fails per item: an item its resolve or a node limit rejects, or a
// failed computation, yields {"index":i,"status":4xx/5xx,"error":...}
// with the single endpoint's message while its siblings keep
// streaming. Chaos campaigns are uncacheable, so under an open breaker
// they fast-fail with 503 while cacheable classes still serve their
// cache hits.

// batchFlushAfter is how long a batch item may wait on a computation
// before the lines written ahead of it are flushed. A symbolic miss
// mostly answers sooner, so a batch of them costs no flush per item,
// and no line waits longer than this behind one engine run.
const batchFlushAfter = time.Millisecond

// batchBodyLimit bounds a batch request body; N scenarios share one
// body, so the cap is wider than the single-item 1 MiB.
const batchBodyLimit = 8 << 20

// handleBatch is the one batch handler of every batchable class: one
// typed strict decode of the whole body (a JSON-shape error in any item
// rejects the batch), then per-item resolve and node limits, whose
// errors become per-item 400 lines with the single endpoint's message.
func (s *Server) handleBatch(cl *Class) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		qs, err := cl.parseBatch(http.MaxBytesReader(w, r.Body, batchBodyLimit))
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if len(qs) == 0 {
			s.writeError(w, http.StatusBadRequest, "batch needs at least one item")
			return
		}
		if len(qs) > s.cfg.MaxBatchItems {
			s.writeError(w, http.StatusBadRequest, "batch of %d items exceeds cap %d", len(qs), s.cfg.MaxBatchItems)
			return
		}
		for i := range qs {
			if qs[i].Err == nil {
				qs[i].Err = qs[i].q.limit(&s.cfg)
			}
		}
		s.runBatch(w, r, qs)
	}
}

// runBatch streams per-item verdicts for a parsed item table under one
// admission slot (already held — the pipeline admitted this request)
// and one breaker settle.
func (s *Server) runBatch(w http.ResponseWriter, r *http.Request, items []Query) {
	s.m.batches.Add(1)
	s.m.batchItems.Add(int64(len(items)))

	// One breaker check admits the whole batch's engine work. With the
	// breaker open, cache and warm hits still stream; only the items
	// that would need the engine fast-fail with 503.
	done, berr := s.brk.Acquire()
	if berr != nil {
		s.m.breakerFF.Add(1)
	}
	settled := false
	defer func() {
		if done != nil && !settled {
			done(true) // unwound mid-batch (panic): settle as failure
		}
	}()

	binary := acceptsWireStream(r)
	if binary {
		w.Header().Set("Content-Type", wire.MediaTypeVerdictStream)
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	// pending marks lines written since the last flush. A hit never
	// waits, so a run of hits costs no flush of its own.
	pending := false
	flush := func() {
		if pending && flusher != nil {
			flusher.Flush()
			pending = false
		}
	}

	rctx := r.Context()
	engineFailed := false
	for i := range items {
		line := s.batchLine(rctx, i, items[i], berr, flush)
		if line.Status >= 500 && line.Verdict == nil && berr == nil && items[i].Err == nil {
			engineFailed = true
		}
		var encErr error
		if binary {
			fb := getFrameBuf()
			var b []byte
			b, encErr = wire.AppendVerdict(fb.b[:0], &line)
			if encErr == nil {
				fb.b = b
				_, encErr = w.Write(b)
			}
			putFrameBuf(fb)
		} else {
			jb := getJSONBuf()
			encErr = jb.enc.Encode(line)
			if encErr == nil {
				_, encErr = w.Write(jb.buf.Bytes())
			}
			putJSONBuf(jb)
		}
		if encErr != nil {
			// Client gone or line unencodable: stop streaming. Items
			// already computed are in the cache for the retry.
			break
		}
		pending = true
	}
	if done != nil {
		settled = true
		done(engineFailed)
	}
}

// batchLine produces the response line for one batch item: a parse
// error, a cache hit, a breaker fast-fail, or a fresh computation
// through the singleflight cache (which also dedups repeats within the
// batch — the first occurrence computes, later ones hit the LRU).
// stalled flushes the lines ahead of an item that waits on a
// computation.
func (s *Server) batchLine(rctx context.Context, i int, q Query, berr error, stalled func()) wire.BatchLine {
	if q.Err != nil {
		return wire.BatchLine{Index: i, Status: http.StatusBadRequest, Error: q.Err.Error()}
	}
	start := s.cfg.Clock()
	finish := func(v any, cached, shared bool) wire.BatchLine {
		elapsed := s.cfg.Clock().Sub(start).Milliseconds()
		return wire.BatchLine{Index: i, Status: http.StatusOK, Verdict: withMeta(v, cached, shared, elapsed)}
	}
	if berr != nil {
		if q.Key != "" {
			if v, ok := s.cache.peek(q.Key); ok {
				return finish(v, true, false)
			}
		}
		return wire.BatchLine{Index: i, Status: http.StatusServiceUnavailable, Error: berr.Error()}
	}
	if rctx.Err() != nil {
		// The batch deadline expired: stream the remaining items as
		// timeouts instead of silently truncating the response.
		s.m.timeouts.Add(1)
		return wire.BatchLine{Index: i, Status: http.StatusGatewayTimeout, Error: "batch deadline exceeded"}
	}
	var val any
	var cached, shared bool
	var err error
	if q.Key == "" {
		// Uncacheable (chaos): run directly under the request context,
		// mirroring the single-item endpoint, behind a flush.
		stalled()
		val, err = q.q.compute(s, rctx)
	} else {
		val, cached, shared, err = s.cache.doStalled(rctx, q.Key, func() (any, error) {
			cctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.ComputeBudget)
			defer cancel()
			return q.q.compute(s, cctx)
		}, stalled)
	}
	if err != nil {
		code, body := s.computeError(err)
		return wire.BatchLine{Index: i, Status: code, Error: body.Error, DiagID: body.DiagID}
	}
	return finish(val, cached, shared)
}
