package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/serve/wire"
)

// The client-side half of the binary negotiation contract: frames are
// requested for decodable verdict types (with JSON still listed), and
// the reply is decoded by sniffing, whichever encoding the server chose.

// TestClientDecodesBinaryVerdict pins the happy path: a server that
// honors the binary Accept answers with one frame, and the client
// decodes it into the caller's verdict struct.
func TestClientDecodesBinaryVerdict(t *testing.T) {
	want := wire.Solvable{Scheme: "S1", Horizon: 3, Solvable: true, Configs: 81, ConfigsExact: "48630661836227715204"}
	var sawAccept atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sawAccept.Store(r.Header.Get("Accept"))
		b, err := wire.Marshal(&want)
		if err != nil {
			t.Errorf("Marshal: %v", err)
		}
		w.Header().Set("Content-Type", wire.MediaTypeVerdict)
		w.Write(b)
	}))
	defer ts.Close()

	c := New(ts.URL, Options{})
	var got wire.Solvable
	if err := c.Do(context.Background(), http.MethodPost, "/v1/solvable", map[string]any{"scheme": "S1", "horizon": 3}, &got); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
	if a, _ := sawAccept.Load().(string); !strings.Contains(a, wire.MediaTypeVerdict) {
		t.Fatalf("client sent Accept %q, want the binary media type", a)
	}
}

// TestClientFallsBackOnJSONReply covers old servers: they ignore the
// binary Accept and answer JSON, and the client must decode that
// without fuss (sniffing, not trusting its own request).
func TestClientFallsBackOnJSONReply(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(wire.Solvable{Scheme: "S1", Horizon: 3, Solvable: true})
	}))
	defer ts.Close()

	c := New(ts.URL, Options{})
	var got wire.Solvable
	if err := c.Do(context.Background(), http.MethodPost, "/v1/solvable", map[string]any{"scheme": "S1"}, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Solvable || got.Scheme != "S1" {
		t.Fatalf("decoded %+v from a JSON reply", got)
	}
}

// TestClientAcceptListsJSON pins why the client needs no JSON
// fallback: every verdict and batch request offers frames first but
// still lists JSON, so a server that only speaks JSON answers it as is.
func TestClientAcceptListsJSON(t *testing.T) {
	var accepts []string
	var mu sync.Mutex
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		accepts = append(accepts, r.Header.Get("Accept"))
		mu.Unlock()
		if r.URL.Path == "/v1/solve/batch" {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.Write([]byte(`{"index":0,"status":200,"verdict":{"scheme":"S1","solvable":true}}` + "\n"))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(wire.Solvable{Scheme: "S1", Solvable: true})
	}))
	defer ts.Close()

	c := New(ts.URL, Options{MaxAttempts: 1})
	var got wire.Solvable
	if err := c.Do(context.Background(), http.MethodPost, "/v1/solvable", map[string]any{"scheme": "S1"}, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Solvable {
		t.Fatalf("decoded %+v from a JSON-only server", got)
	}
	lines := 0
	if err := c.SolveBatch(context.Background(), []BatchItem{{Scheme: "S1"}}, func(BatchVerdict) error {
		lines++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if lines != 1 {
		t.Fatalf("batch delivered %d lines, want 1", lines)
	}
	want := []string{wire.AcceptVerdict, wire.AcceptVerdictStream}
	if !reflect.DeepEqual(accepts, want) {
		t.Fatalf("client sent Accept %q, want %q", accepts, want)
	}
	for _, a := range accepts {
		if !strings.Contains(a, "json") {
			t.Fatalf("Accept %q does not list JSON", a)
		}
	}
}

// TestClient406IsAnAPIError pins that a 406 gets no special path: the
// client neither retries it as JSON nor changes what it asks for next
// time, it surfaces the reply as an ordinary non-retryable APIError.
func TestClient406IsAnAPIError(t *testing.T) {
	var accepts []string
	var mu sync.Mutex
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		accepts = append(accepts, r.Header.Get("Accept"))
		mu.Unlock()
		w.WriteHeader(http.StatusNotAcceptable)
	}))
	defer ts.Close()

	c := New(ts.URL, Options{MaxAttempts: 3})
	for i := 0; i < 2; i++ {
		var got wire.Solvable
		err := c.Do(context.Background(), http.MethodPost, "/v1/solvable", map[string]any{"scheme": "S1"}, &got)
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotAcceptable {
			t.Fatalf("call %d: err = %v, want APIError 406", i, err)
		}
	}
	want := []string{wire.AcceptVerdict, wire.AcceptVerdict}
	if !reflect.DeepEqual(accepts, want) {
		t.Fatalf("server saw Accept %q, want one request per call with %q", accepts, want)
	}
}

// TestBatchStreamsFrames pins the batch half: a server streaming
// BatchLine frames under the stream media type reaches the caller's
// callback with typed decoded verdicts.
func TestBatchStreamsFrames(t *testing.T) {
	lines := []*wire.BatchLine{
		{Index: 0, Status: 200, Verdict: &wire.Solvable{Scheme: "S1", Horizon: 2, Solvable: true}},
		{Index: 1, Status: 400, Error: "unknown scheme"},
		{Index: 2, Status: 200, Verdict: &wire.Solvable{Scheme: "S2", Horizon: 3}},
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.Contains(r.Header.Get("Accept"), wire.MediaTypeVerdictStream) {
			t.Errorf("batch Accept = %q, want the stream media type", r.Header.Get("Accept"))
		}
		w.Header().Set("Content-Type", wire.MediaTypeVerdictStream)
		var out []byte
		for _, l := range lines {
			var err error
			out, err = wire.AppendVerdict(out, l)
			if err != nil {
				t.Errorf("AppendVerdict: %v", err)
			}
		}
		w.Write(out)
	}))
	defer ts.Close()

	c := New(ts.URL, Options{})
	var got []BatchVerdict
	items := []BatchItem{{Scheme: "S1", Horizon: 2}, {Scheme: "nope", Horizon: 2}, {Scheme: "S2", Horizon: 3}}
	err := c.SolveBatch(context.Background(), items, func(v BatchVerdict) error {
		got = append(got, v)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(lines) {
		t.Fatalf("callback saw %d lines, want %d", len(got), len(lines))
	}
	for i, v := range got {
		if v.Index != lines[i].Index || v.Status != lines[i].Status || v.Error != lines[i].Error {
			t.Fatalf("line %d = %+v, want %+v", i, v, lines[i])
		}
	}
	sv, ok := got[0].Decoded.(*wire.Solvable)
	if !ok || sv.Scheme != "S1" || !sv.Solvable {
		t.Fatalf("line 0 decoded verdict = %#v, want the typed solvable", got[0].Decoded)
	}
	raw, err := got[2].Raw()
	if err != nil {
		t.Fatal(err)
	}
	var back wire.Solvable
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("Raw() of a frame-decoded verdict is not JSON: %v", err)
	}
	if back.Scheme != "S2" {
		t.Fatalf("Raw() round trip = %+v", back)
	}
}
