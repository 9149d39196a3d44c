package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestSplitBatch pins the splitter on the layouts it reads and the ones
// it declines: strings holding braces, brackets and escaped quotes,
// whitespace between and after the tokens, repeated items, and the
// bodies the typed decode must answer instead.
func TestSplitBatch(t *testing.T) {
	for _, tc := range []struct {
		body  string
		items []string // nil: declined
	}{
		{`{"items":[{"a":"}{]["},{"b":"\"}"}]}`, []string{`{"a":"}{]["}`, `{"b":"\"}"}`}},
		{`{"items":[{"a":"\\"},{"b":1}]}`, []string{`{"a":"\\"}`, `{"b":1}`}},
		{`{"items":[{"expr":"[.w]^w | [.b]^w","minus":["(w)"]}]}`, []string{`{"expr":"[.w]^w | [.b]^w","minus":["(w)"]}`}},
		{" { \"items\" : [ {\"a\":1} ,\n{\"b\":[1,{\"c\":2}]} ] } \n\t", []string{`{"a":1}`, `{"b":[1,{"c":2}]}`}},
		{`{"items":[{"a":1},{"a":1},{"a":1}]}`, []string{`{"a":1}`, `{"a":1}`, `{"a":1}`}},
		{`{"items":[]}`, nil},
		{`{"items":[null]}`, nil},
		{`{"items":[{"a":1},null]}`, nil},
		{`{"items":[{"a":1},]}`, nil},
		{`{"items":[{"a":1}]}x`, nil},
		{`{"items":[{"a":1}],"x":1}`, nil},
		{`{"x":1,"items":[{"a":1}]}`, nil},
		{`{"ITEMS":[{"a":1}]}`, nil},
		{`{"items":[{"a":"}]}`, nil},
		{`{"items":[{"a":1}]`, nil},
		{`{"items":[{"a":1]}]}`, nil},
		{`[{"a":1}]`, nil},
		{``, nil},
	} {
		spans, ok := splitBatch([]byte(tc.body), nil)
		if ok != (tc.items != nil) {
			t.Fatalf("splitBatch(%q) ok = %v, want %v", tc.body, ok, tc.items != nil)
		}
		if !ok {
			continue
		}
		got := make([]string, len(spans))
		for i, sp := range spans {
			got[i] = tc.body[sp.lo:sp.hi]
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.items) {
			t.Fatalf("splitBatch(%q) = %q, want %q", tc.body, got, tc.items)
		}
	}
}

// postTo sends body to path on h and returns the status and the reply.
func postTo(h http.Handler, path, body string) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec.Code, rec.Body.String()
}

// padTo pads a solvable item with whitespace inside its object to
// exactly n bytes.
func padTo(n int) string {
	const item = `{"scheme":"S1","horizon":2}`
	return "{" + strings.Repeat(" ", n-len(item)) + item[1:]
}

// TestMemoFillRule pins what the memo holds: only bodies and batch
// items the LRU answered, up to exactly memoItemMax bytes, at most
// CacheEntries per class; misses and rejections add nothing.
func TestMemoFillRule(t *testing.T) {
	s := New(Config{CacheEntries: 4, Logf: func(string, ...any) {}})
	h := s.Handler()
	m := &s.memos[Solvable.id]
	size := func() int {
		m.mu.Lock()
		defer m.mu.Unlock()
		return len(m.m)
	}

	// Misses and rejections memoize nothing.
	for hz := 1; hz <= 3; hz++ {
		if code, body := postTo(h, "/v1/solvable", fmt.Sprintf(`{"scheme":"S1","horizon":%d}`, hz)); code != http.StatusOK {
			t.Fatalf("miss: %d %s", code, body)
		}
	}
	postTo(h, "/v1/solvable", `{"scheme":"S1","horizon":99}`)
	postTo(h, "/v1/solve/batch", `{"items":[{"scheme":"S1","horizon":4},{"scheme":"nope"}]}`)
	if n := size(); n != 0 {
		t.Fatalf("misses and rejections memoized %d bodies", n)
	}

	// An item at exactly the cap is memoized by its hit; one byte more
	// is not.
	atCap, overCap := padTo(memoItemMax), padTo(memoItemMax+1)
	batch := `{"items":[` + atCap + `,` + overCap + `]}`
	for i := 0; i < 2; i++ {
		if code, body := postTo(h, "/v1/solve/batch", batch); code != http.StatusOK || strings.Count(body, `"status":200`) != 2 {
			t.Fatalf("batch: %d %s", code, body)
		}
	}
	if _, ok := m.get([]byte(atCap)); !ok {
		t.Fatalf("a hit item of exactly %d bytes was not memoized", memoItemMax)
	}
	if _, ok := m.get([]byte(overCap)); ok {
		t.Fatalf("a hit item of %d bytes was memoized", memoItemMax+1)
	}

	// Hits fill the memo up to CacheEntries.
	for hz := 1; hz <= 4; hz++ {
		postTo(h, "/v1/solvable", fmt.Sprintf(`{"scheme":"S1","horizon":%d}`, hz))
		postTo(h, "/v1/solvable", fmt.Sprintf(` {"scheme":"S1","horizon":%d}`, hz))
	}
	if n := size(); n != 4 {
		t.Fatalf("memo holds %d bodies, want CacheEntries (4)", n)
	}
}

// TestMemoKeyAfterEviction: a memoized body whose verdict the LRU has
// since evicted is answered as the miss it is, single and batch alike,
// and its next request is a hit again.
func TestMemoKeyAfterEviction(t *testing.T) {
	s := New(Config{CacheEntries: 2, Logf: func(string, ...any) {}})
	h := s.Handler()
	single := `{"scheme":"S1","horizon":2}`
	batch := `{"items":[` + single + `]}`
	evict := func() {
		for hz := 3; hz <= 4; hz++ {
			postTo(h, "/v1/solvable", fmt.Sprintf(`{"scheme":"S1","horizon":%d}`, hz))
		}
	}
	const hit = `"cached":true`
	for _, tc := range []struct{ path, body string }{
		{"/v1/solvable", single},
		{"/v1/solve/batch", batch},
	} {
		for i := 0; i < 2; i++ {
			postTo(h, tc.path, tc.body)
		}
		if _, ok := s.memos[Solvable.id].get([]byte(single)); !ok {
			t.Fatalf("%s: the hit body was not memoized", tc.path)
		}
		evict()
		if code, got := postTo(h, tc.path, tc.body); code != http.StatusOK || strings.Contains(got, hit) || !strings.Contains(got, `"solvable":`) {
			t.Fatalf("%s after eviction = %d %s, want an uncached verdict", tc.path, code, got)
		}
		if code, got := postTo(h, tc.path, tc.body); code != http.StatusOK || !strings.Contains(got, hit) {
			t.Fatalf("%s once recomputed = %d %s, want a hit", tc.path, code, got)
		}
	}
}

// TestBatchErrorsUnchangedByMemo: a batch whose items are all memoized
// but whose layout the typed decode rejects, or whose one item is not
// memoized, gets exactly the reply the typed decode gives; an oversize
// body keeps its 400 text, single and batch alike.
func TestBatchErrorsUnchangedByMemo(t *testing.T) {
	s := New(Config{Logf: func(string, ...any) {}})
	h := s.Handler()
	item := `{"scheme":"S1","horizon":2}`
	for i := 0; i < 2; i++ {
		postTo(h, "/v1/solve/batch", `{"items":[`+item+`]}`)
	}
	if _, ok := s.memos[Solvable.id].get([]byte(item)); !ok {
		t.Fatal("the hit item was not memoized")
	}
	for _, tc := range []struct{ body, want string }{
		{`{"items":[` + item + `,` + item + `]}x`, `{"error":"bad request: trailing data after the JSON value"}` + "\n"},
		{`{"items":[` + item + `,{"scheme":"S1","horizn":2}]}`, `{"error":"bad request: json: unknown field \"horizn\""}` + "\n"},
		{`{"items":[` + item + `],"extra":1}`, `{"error":"bad request: json: unknown field \"extra\""}` + "\n"},
		{`{"items":[]}`, `{"error":"batch needs at least one item"}` + "\n"},
		{`{"items":[null]}`, `{"index":0,"status":400,"error":"request needs \"scheme\" or \"expr\""}` + "\n"},
		{`{"items":[` + item + `,` + strings.Repeat(" ", batchBodyLimit) + `]}`, `{"error":"bad request: http: request body too large"}` + "\n"},
	} {
		if _, got := postTo(h, "/v1/solve/batch", tc.body); got != tc.want {
			t.Fatalf("batch %.80q = %q, want %q", tc.body, got, tc.want)
		}
	}
	if _, got := postTo(h, "/v1/solvable", `{"scheme":"`+strings.Repeat("x", singleBodyLimit)+`"}`); got != `{"error":"bad request: http: request body too large"}`+"\n" {
		t.Fatalf("oversize single = %q", got)
	}
}

// FuzzParseBatch drives the memo's batch lookup (splitBatch, then
// getAll) with arbitrary body bytes and memo contents: every span of
// the body that a single body of the class would accept, plus arbitrary
// extra bodies. The lookup must never panic, and when it finds every
// item, the typed decode must accept the body and give every item the
// same key and no error.
func FuzzParseBatch(f *testing.F) {
	classes := []*Class{Solvable, NetSolvable, Chaos}
	for _, seed := range []struct {
		c          uint8
		body, more string
	}{
		{0, `{"items":[{"scheme":"S1","horizon":2},{"scheme":"S1","horizon":2}]}`, ``},
		{0, ` {"items" : [ {"scheme":"S1","horizon":2} ,{"expr":"[.w]^w | [.b]^w","horizon":3}]} `, `{"scheme":"S1","horizon":3}`},
		{0, `{"items":[{"scheme":"S1","horizon":2,"horizon":3}]}`, ``},
		{0, `{"items":[{"scheme":"S1","horizon":2}]}`, `{"scheme":"S1","horizon":2}`},
		{0, `{"items":[{"scheme":"S1","Horizon":2}]}x`, ``},
		{0, `{"items":[{"scheme":"S1","horizon":99}]}`, ``},
		{1, `{"items":[{"graph":"cycle","n":4,"f":1,"rounds":2},null]}`, ``},
		{1, `{"items":[{"graph":"custom","edges":"0-1,1-2","f":1,"rounds":2}]}`, ``},
		{2, `{"items":[{"scheme":"S1","executions":5,"seed":1}]}`, ``},
	} {
		f.Add(seed.c, []byte(seed.body), []byte(seed.more))
	}
	s := New(Config{Logf: func(string, ...any) {}})
	f.Fuzz(func(t *testing.T, c uint8, body, more []byte) {
		cl := classes[int(c)%len(classes)]
		m := newRequestMemo(64)
		fill := func(b []byte) {
			if q, err := cl.Parse(b); err == nil && s.limit(q) == nil {
				m.put(b, q.Key)
			}
		}
		for _, b := range bytes.Split(more, []byte{0}) {
			fill(b)
		}
		if spans, ok := splitBatch(body, nil); ok {
			for _, sp := range spans {
				fill(body[sp.lo:sp.hi])
			}
		}
		spans, ok := splitBatch(body, nil)
		if !ok {
			return
		}
		keys := make([]string, len(spans))
		if !m.getAll(body, spans, keys) {
			return
		}
		want, err := cl.parseBatch(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: fast path answered %q, which the typed decode rejects: %v", cl.Path, body, err)
		}
		if len(want) != len(keys) {
			t.Fatalf("%s: fast path found %d items in %q, the typed decode %d", cl.Path, len(keys), body, len(want))
		}
		for i := range want {
			if want[i].Err == nil {
				want[i].Err = s.limit(want[i])
			}
			if want[i].Err != nil || want[i].Key != keys[i] {
				t.Fatalf("%s: item %d of %q: fast path key %q, typed decode %q (%v)",
					cl.Path, i, body, keys[i], want[i].Key, want[i].Err)
			}
		}
	})
}
