package serve

import (
	"bytes"
	"io"
	"net/http"
	"sync"
)

// The request memo: a cache hit without a JSON decode. A verdict
// depends only on its key, and a key only on the request's bytes, so a
// body the LRU has answered once resolves the same way every time. The
// memo maps those exact bytes to that key; a hit whose body (or, in a
// batch, every item) is in it goes from the read straight to the LRU
// lookup and the stored hit bytes (verdictEntry). Anything else, a
// memoized key whose verdict the LRU has since evicted included, takes
// the typed decode, unchanged.

// memoItemMax is the largest single body or batch item the memo holds.
const memoItemMax = 1 << 10

// batchHead is how much of a batch body is read ahead of its decode: a
// batch longer than this is decoded as it streams in, without the memo.
const batchHead = 64 << 10

// requestMemo maps the exact bytes of a single body or batch item of
// one class to the LRU key they resolve to under the node's limits. It
// is filled only by items the LRU answered, so a miss-only workload
// adds nothing to it, and it holds at most max entries of at most
// memoItemMax bytes and one key each; it keeps no compiled scheme or
// graph alive.
type requestMemo struct {
	mu  sync.Mutex
	max int
	m   map[string]string
}

func newRequestMemo(max int) requestMemo {
	return requestMemo{max: max, m: make(map[string]string)}
}

func (m *requestMemo) get(b []byte) (string, bool) {
	m.mu.Lock()
	key, ok := m.m[string(b)]
	m.mu.Unlock()
	return key, ok
}

// getAll fills keys with the memoized key of every span of body, or
// reports false as soon as one is missing.
func (m *requestMemo) getAll(body []byte, spans []span, keys []string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, sp := range spans {
		key, ok := m.m[string(body[sp.lo:sp.hi])]
		if !ok {
			return false
		}
		keys[i] = key
	}
	return true
}

// put memoizes key, the LRU key that b resolves to, unless b is over
// memoItemMax or the item is uncacheable (no key). A full memo drops an
// arbitrary entry (map order) to make room.
func (m *requestMemo) put(b []byte, key string) {
	if len(b) > memoItemMax || key == "" {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.m[string(b)]; ok {
		return
	}
	if len(m.m) >= m.max {
		for k := range m.m {
			delete(m.m, k)
			break
		}
	}
	m.m[string(b)] = key
}

// span is one batch item's byte range in its body.
type span struct{ lo, hi int }

// bodyBuf holds the head of a request body, read before its decode so
// the memo can be asked first. As an io.Reader it replays the body as
// the decode would have read it: the head, then the rest of the body
// or the error that ended the head.
type bodyBuf struct {
	b     []byte
	off   int
	err   error
	rest  io.Reader
	spans []span
	keys  []string
	hits  []*verdictEntry
}

var bodyBufPool = sync.Pool{New: func() any {
	return &bodyBuf{b: make([]byte, 0, 2*memoItemMax)}
}}

func getBodyBuf() *bodyBuf { return bodyBufPool.Get().(*bodyBuf) }

func putBodyBuf(bb *bodyBuf) {
	clear(bb.keys[:cap(bb.keys)])
	clear(bb.hits[:cap(bb.hits)])
	bb.err, bb.rest = nil, nil
	if cap(bb.b) <= batchHead+1 {
		bodyBufPool.Put(bb)
	}
}

// read reads up to head bytes of the request body and reports whether
// that was all of it. The rest of a longer body stays behind a
// MaxBytesReader that allows limit bytes in all, so its decode meets
// the same bound, and the same error, as one that read it whole.
func (bb *bodyBuf) read(w http.ResponseWriter, body io.ReadCloser, head int, limit int64) bool {
	bb.b, bb.off, bb.err, bb.rest = bb.b[:0], 0, nil, nil
	for {
		if len(bb.b) == cap(bb.b) {
			// Grow no further than the head, so a pooled buffer stays
			// within batchHead+1.
			nb := make([]byte, len(bb.b), min(2*cap(bb.b), head+1))
			copy(nb, bb.b)
			bb.b = nb
		}
		n, err := body.Read(bb.b[len(bb.b):min(cap(bb.b), head+1)])
		bb.b = bb.b[:len(bb.b)+n]
		switch {
		case err == io.EOF:
			return true
		case err != nil:
			bb.err = err
			return false
		case len(bb.b) > head:
			bb.rest = http.MaxBytesReader(w, body, limit-int64(len(bb.b)))
			return false
		}
	}
}

func (bb *bodyBuf) Read(p []byte) (int, error) {
	if bb.off < len(bb.b) {
		n := copy(p, bb.b[bb.off:])
		bb.off += n
		return n, nil
	}
	if bb.err != nil {
		return 0, bb.err
	}
	if bb.rest == nil {
		return 0, io.EOF
	}
	return bb.rest.Read(p)
}

// memoHits answers a whole batch body from the memo and the LRU: the
// hit entries of its items when splitBatch splits it into at most
// maxItems items, the memo holds every item's key and the LRU every
// key's verdict; nil otherwise. split reports whether the body was
// split, leaving its items' spans in bb.spans.
func (bb *bodyBuf) memoHits(m *requestMemo, rc *resultCache, maxItems int) (hits []*verdictEntry, split bool) {
	bb.spans, split = splitBatch(bb.b, bb.spans[:0])
	n := len(bb.spans)
	if !split || n > maxItems {
		// Over the cap: the typed decode gives its 400.
		return nil, split
	}
	if cap(bb.keys) < n {
		bb.keys = make([]string, n)
	}
	if cap(bb.hits) < n {
		bb.hits = make([]*verdictEntry, n)
	}
	bb.keys, bb.hits = bb.keys[:n], bb.hits[:n]
	if !m.getAll(bb.b, bb.spans, bb.keys) || !rc.peekAll(bb.keys, bb.hits) {
		return nil, true
	}
	return bb.hits, true
}

var itemsHead = []byte(`"items"`)

// splitBatch appends to spans the byte spans of the items of a batch
// body laid out exactly as {"items":[…]}, each item a JSON object, with
// JSON whitespace allowed between tokens and after the body. It
// declines (false) anything else, an empty items list included; the
// typed decode answers those. It does not validate an item: a span is
// only ever used when the memo holds its exact bytes, which decoded as
// an object of the class, so a body whose every span is memoized is
// valid JSON that the typed decode reads as those very items.
func splitBatch(b []byte, spans []span) ([]span, bool) {
	i, ok := expect(b, 0, '{')
	if !ok {
		return spans, false
	}
	i = skipSpace(b, i)
	if !bytes.HasPrefix(b[i:], itemsHead) {
		return spans, false
	}
	if i, ok = expect(b, i+len(itemsHead), ':'); !ok {
		return spans, false
	}
	if i, ok = expect(b, i, '['); !ok {
		return spans, false
	}
	for {
		i = skipSpace(b, i)
		end := objectEnd(b, i)
		if end < 0 {
			return spans, false
		}
		spans = append(spans, span{i, end})
		i = skipSpace(b, end)
		if i < len(b) && b[i] == ',' {
			i++
			continue
		}
		break
	}
	if i, ok = expect(b, i, ']'); !ok {
		return spans, false
	}
	if i, ok = expect(b, i, '}'); !ok {
		return spans, false
	}
	return spans, skipSpace(b, i) == len(b)
}

// expect skips whitespace from i and consumes c, returning the index
// after it.
func expect(b []byte, i int, c byte) (int, bool) {
	i = skipSpace(b, i)
	if i < len(b) && b[i] == c {
		return i + 1, true
	}
	return i, false
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// objectEnd returns the index just past the object that opens at b[i]
// (-1 when none does), matching braces and brackets outside strings.
func objectEnd(b []byte, i int) int {
	if i >= len(b) || b[i] != '{' {
		return -1
	}
	depth := 0
	for ; i < len(b); i++ {
		switch b[i] {
		case '"':
			for i++; i < len(b) && b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
			if i >= len(b) {
				return -1
			}
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				if b[i] != '}' {
					return -1
				}
				return i + 1
			}
		}
	}
	return -1
}
