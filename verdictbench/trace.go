package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptrace"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval of the traced run. Spans of one HTTP call
// share Req; Parent names the span that caused this one.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) since(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

func (t *tracer) add(s span) int64 {
	if s.ID == 0 {
		s.ID = t.ids.Add(1)
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// time runs fn inside a span named name and returns its duration.
func (t *tracer) time(name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(span{Name: name, Start: t.since(start), End: t.since(end)})
	return end.Sub(start)
}

// httpSpan collects the httptrace events of one call. The transport
// may report them from its own goroutines, hence the atomics.
type httpSpan struct {
	t                             *tracer
	name                          string
	id                            int64
	start                         time.Time
	getConn, gotConn, wrote, byte atomic.Int64
}

// startHTTP attaches an httptrace hook to req and opens its root span.
func (t *tracer) startHTTP(req *http.Request, path string) (*http.Request, *httpSpan) {
	h := &httpSpan{t: t, name: "http " + path, id: t.ids.Add(1), start: time.Now()}
	mark := func(a *atomic.Int64) { a.Store(t.since(time.Now())) }
	ct := &httptrace.ClientTrace{
		GetConn:              func(string) { mark(&h.getConn) },
		GotConn:              func(httptrace.GotConnInfo) { mark(&h.gotConn) },
		WroteRequest:         func(httptrace.WroteRequestInfo) { mark(&h.wrote) },
		GotFirstResponseByte: func() { mark(&h.byte) },
	}
	return req.WithContext(httptrace.WithClientTrace(req.Context(), ct)), h
}

// end closes the call's spans once its body has been read: the root,
// then get-conn, write, wait (request written → first byte) and read
// (first byte → last byte) children.
func (h *httpSpan) end() {
	t := h.t
	end := t.since(time.Now())
	root := span{ID: h.id, Req: h.id, Name: h.name, Start: t.since(h.start), End: end}
	g, c, w, b := h.getConn.Load(), h.gotConn.Load(), h.wrote.Load(), h.byte.Load()
	children := []span{
		{Name: "get-conn", Start: g, End: c},
		{Name: "write", Start: c, End: w},
		{Name: "wait", Start: w, End: b},
		{Name: "read", Start: b, End: end},
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, root)
	for _, s := range children {
		if s.Start == 0 || s.End < s.Start {
			continue // the event never fired (reused connection, early error)
		}
		s.ID, s.Parent, s.Req = t.ids.Add(1), h.id, h.id
		t.spans = append(t.spans, s)
	}
}

// durations returns the duration of every span named name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
