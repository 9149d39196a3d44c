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
// fallback: every verdict request offers frames first but still lists
// JSON, so a server that only speaks JSON answers it as is.
func TestClientAcceptListsJSON(t *testing.T) {
	var accepts []string
	var mu sync.Mutex
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		accepts = append(accepts, r.Header.Get("Accept"))
		mu.Unlock()
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
	want := []string{wire.AcceptVerdict}
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
