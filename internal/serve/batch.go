package serve

import (
	"context"
	"net/http"
	"strconv"
	"time"

	"repro/internal/serve/wire"
)

// Batch admission tier, shared by every heavy class:
//
//	POST /v1/solve/batch      — bounded-round solvability scenarios
//	POST /v1/net/solve/batch  — network solvability instances
//	POST /v1/chaos/batch      — seeded chaos campaigns
//
// N items are admitted under ONE heavy admission slot, deduplicated
// against the LRU where the class is cacheable (and against each other
// — a repeated key inside the batch computes once), each answered by
// the single endpoint's item path (so the breaker settles once per
// computation, never per batch, and a batch can open it part-way
// through), computed one at a time on a node and batchFanout at
// once on a front, with per-item verdicts streamed in item order (the
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

// batchFanout is how many items of one batch a front computes at once,
// so a batch of misses takes about one remote round trip.
const batchFanout = 8

// batchBodyLimit bounds a batch request body; N scenarios share one
// body, so the cap is wider than the single-item 1 MiB.
const batchBodyLimit = 8 << 20

// handleBatch is the one batch handler of every batchable class. A
// body whose every item the memo holds a key for, and the LRU a verdict
// for, is answered without a decode (memoHits). Any other takes one
// typed strict decode of the whole body (a JSON-shape error in any item
// rejects the batch), then per-item resolve and node limits, whose
// errors become per-item 400 lines with the single endpoint's message.
// An item the LRU answers after that decode is memoized (memoizeItem).
func (s *Server) handleBatch(cl *Class) http.HandlerFunc {
	memo := &s.memos[cl.id]
	return func(w http.ResponseWriter, r *http.Request) {
		deadline := time.Now().Add(s.requestTimeout(r))
		bb := getBodyBuf()
		defer putBodyBuf(bb)
		var hits []*verdictEntry
		split := false
		if bb.read(w, r.Body, batchHead, batchBodyLimit) {
			hits, split = bb.memoHits(memo, s.cache, s.cfg.MaxBatchItems)
		}
		if hits != nil {
			s.runBatch(w, r, deadline, cl, nil, hits, nil)
			return
		}
		qs, err := cl.parseBatch(bb)
		if err != nil {
			WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if len(qs) == 0 {
			WriteError(w, http.StatusBadRequest, "batch needs at least one item")
			return
		}
		if len(qs) > s.cfg.MaxBatchItems {
			WriteError(w, http.StatusBadRequest, "batch of %d items exceeds cap %d", len(qs), s.cfg.MaxBatchItems)
			return
		}
		for i := range qs {
			if qs[i].Err == nil {
				qs[i].Err = s.limit(qs[i])
			}
		}
		var onHit func(i int)
		if split && len(bb.spans) == len(qs) {
			onHit = func(i int) {
				s.memoizeItem(memo, cl, bb.b[bb.spans[i].lo:bb.spans[i].hi], qs[i].Key)
			}
		}
		s.runBatch(w, r, deadline, cl, qs, nil, onHit)
	}
}

// memoizeItem memoizes a batch item the LRU answered, given its bytes
// and the key the batch's decode gave it, when decoding the item's own
// bytes gives the same key: the memo holds only what a single body of
// those bytes would resolve to. It runs once per item not yet
// memoized, never on a miss.
func (s *Server) memoizeItem(m *requestMemo, cl *Class, item []byte, key string) {
	if len(item) > memoItemMax {
		return
	}
	if _, ok := m.get(item); ok {
		return
	}
	q, err := cl.Parse(item)
	if err == nil && s.limit(q) == nil && q.Key == key {
		m.put(item, key)
	}
}

// runBatch streams per-item verdicts for a parsed item table under one
// admission slot (already held — the pipeline admitted this request),
// writing the lines in item order before deadline. Each item runs the
// single endpoint's item path, so the breaker sees one call per
// computation, never one per batch. A hit's line is its entry's stored
// bytes (hitLine); onHit, when set, is told each item a hit answered.
// hits, when set in place of items, holds the LRU entry of every item:
// a batch the memo and the LRU answered whole.
func (s *Server) runBatch(w http.ResponseWriter, r *http.Request, deadline time.Time, cl *Class, items []Query, hits []*verdictEntry, onHit func(i int)) {
	n := len(items)
	if hits != nil {
		n = len(hits)
	}
	s.m.batches.Add(1)
	s.m.batchItems.Add(int64(n))

	binary := accepts(r, wire.MediaTypeVerdictStream)
	if binary {
		w.Header()["Content-Type"] = contentTypeFrameStream
	} else {
		w.Header()["Content-Type"] = contentTypeNDJSON
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
	// The request deadline is built when an item first has to start or
	// wait on a computation, so an all-hit batch takes no timer.
	var rctx context.Context
	cancel := context.CancelFunc(func() {})
	defer func() { cancel() }()
	reqCtx := func() context.Context {
		if rctx == nil {
			rctx, cancel = context.WithDeadline(r.Context(), deadline)
		}
		return rctx
	}

	// A node starts each item when its turn comes; a front starts items
	// ahead while fewer than batchFanout of its computations are out.
	var one [1]item
	slots, ahead, out, started := one[:], 0, 0, 0
	if s.remote != nil && hits == nil {
		slots, ahead = make([]item, n), batchFanout
	}
	for i := 0; i < n; i++ {
		for ; started < n && (started <= i || out < ahead); started++ {
			var it item
			ok := hits != nil
			if ok {
				it.hit = hits[started]
			} else if it, ok = s.known(items[started]); !ok {
				it = s.begin(reqCtx(), cl, items[started])
			}
			slots[started%len(slots)] = it
			if it.call != nil {
				out++
			}
		}
		it := slots[i%len(slots)]
		fb := getFrameBuf()
		b, ok := fb.b[:0], false
		if it.hit != nil {
			b, ok = hitLine(b, i, it.hit, binary)
		}
		var encErr error
		if !ok {
			line := wire.BatchLine{Index: i, Status: http.StatusOK}
			if it.hit != nil {
				// A hit with no stored bytes in this encoding.
				line.Verdict = asHit(it.hit.val)
			} else {
				ctx := r.Context()
				if it.call != nil {
					out--
					ctx = reqCtx()
				} else if it.inline {
					ctx = reqCtx()
				}
				val, err := s.finishItem(ctx, cl, items[i], it, flush)
				if err != nil {
					var body apiError
					line.Status, body = s.computeError(err)
					line.Error, line.DiagID = body.Error, body.DiagID
				} else {
					line.Verdict = val
				}
			}
			b, encErr = appendLine(b, &line, binary)
		}
		if encErr == nil {
			fb.b = b
			_, encErr = w.Write(b)
		}
		putFrameBuf(fb)
		if encErr != nil {
			// Client gone or line unencodable: stop streaming. Items
			// already computed are in the cache for the retry.
			break
		}
		pending = true
		if it.hit != nil && onHit != nil {
			onHit(i)
		}
	}
}

// hitLine appends the 200 line of item i, answered by the hit e, from
// e's stored bytes: byte for byte the line appendLine encodes for
// asHit(e.val). It reports false when e has no stored bytes in the
// encoding.
func hitLine(dst []byte, i int, e *verdictEntry, binary bool) ([]byte, bool) {
	if binary {
		f := e.hitFrame()
		if len(f) == 0 {
			return dst, false
		}
		out, err := wire.AppendVerdictLine(dst, i, f)
		return out, err == nil
	}
	body := e.hitJSON()
	if body == nil {
		return dst, false
	}
	dst = append(dst, `{"index":`...)
	dst = strconv.AppendInt(dst, int64(i), 10)
	dst = append(dst, `,"status":200,"verdict":`...)
	dst = append(dst, body[:len(body)-1]...) // the body without its newline
	return append(dst, "}\n"...), true
}

// appendLine appends one batch line in the negotiated encoding: a
// frame, or a JSON line.
func appendLine(dst []byte, line *wire.BatchLine, binary bool) ([]byte, error) {
	if binary {
		return wire.AppendVerdict(dst, line)
	}
	jb := getJSONBuf()
	defer putJSONBuf(jb)
	if err := jb.enc.Encode(line); err != nil {
		return dst, err
	}
	return append(dst, jb.buf.Bytes()...), nil
}

// item is one item, single or batched, between its start and its
// answer: an answer already known (a cache hit, or a rejection as a
// *StatusError), a computation to wait on, or an uncacheable item to
// compute inline when its turn comes.
type item struct {
	hit    *verdictEntry
	err    error
	call   *flightCall
	shared bool
	inline bool
	// from receives the server a front's computation was answered by;
	// only this item's own singleflight leader writes it.
	from *string
}

// startItem starts one item: its known answer, or its computation.
func (s *Server) startItem(rctx context.Context, cl *Class, q Query) item {
	if it, ok := s.known(q); ok {
		return it
	}
	return s.begin(rctx, cl, q)
}

// known answers an item without computing: a resolve or limit
// rejection (400), or a cache hit.
func (s *Server) known(q Query) (item, bool) {
	if q.Err != nil {
		return item{err: &StatusError{Status: http.StatusBadRequest, Msg: q.Err.Error()}}, true
	}
	if q.Key != "" {
		if e, ok := s.cache.peek(q.Key); ok {
			return item{hit: e}, true
		}
	}
	return item{}, false
}

// begin starts the computation of an item known does not answer: an
// expired request deadline (504), or a computation through the
// singleflight cache (which dedups repeats within a batch too) under
// the detached compute budget. An uncacheable (chaos) item runs under
// the request context: on a node inline when its turn comes.
func (s *Server) begin(rctx context.Context, cl *Class, q Query) item {
	var it item
	if rctx.Err() != nil {
		// The batch deadline expired: stream the remaining items as
		// timeouts instead of silently truncating the response.
		s.m.timeouts.Add(1)
		it.err = &StatusError{Status: http.StatusGatewayTimeout, Msg: "batch deadline exceeded"}
		return it
	}
	switch {
	case q.Key == "" && s.remote == nil:
		it.inline = true
	case q.Key == "":
		// An unkeyed flight: run neither shares nor caches it.
		it.call = &flightCall{done: make(chan struct{})}
		go s.cache.run("", it.call, func() (any, error) {
			v, _, err := s.compute(rctx, cl, q)
			return v, err
		})
	default:
		from := new(string)
		it.from = from
		// A nil call: its computation finished since known's peek.
		it.hit, it.call, it.shared = s.cache.start(q.Key, func() (v any, err error) {
			cctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.ComputeBudget)
			defer cancel()
			v, *from, err = s.compute(cctx, cl, q)
			return v, err
		})
	}
	return it
}

// finishItem answers an item, waiting for its computation if it has
// one; stalled (nil for a single request) flushes a batch's lines ahead
// of an item that waits on a computation. A hit answers its stored
// verdict, which the caller serves as asHit.
func (s *Server) finishItem(ctx context.Context, cl *Class, q Query, it item, stalled func()) (val any, err error) {
	switch {
	case it.inline:
		if stalled != nil {
			stalled()
		}
		val, _, err = s.compute(ctx, cl, q)
		return val, err
	case it.call != nil:
		if err = wait(ctx, it.call.done, stalled); err != nil {
			return nil, err
		}
		return it.call.val, it.call.err
	case it.hit != nil:
		return it.hit.val, nil
	default:
		return nil, it.err
	}
}
