package client

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/serve/wire"
)

// TestWarmExportDecodesSegment drives the warm export against a stub
// speaking the server's wire shape: the client asks for a warm segment,
// decodes its records verbatim (frames and classify JSON alike), and
// reads the truncation flag from X-Warm-Truncated.
func TestWarmExportDecodesSegment(t *testing.T) {
	frame, err := wire.Marshal(&wire.Solvable{Scheme: "S1", Horizon: 3, Solvable: true})
	if err != nil {
		t.Fatal(err)
	}
	seg := wire.AppendSegmentHeader(nil)
	seg = wire.AppendSegmentRecord(seg, "classify|x", []byte(`{"class":"A"}`))
	seg = wire.AppendSegmentRecord(seg, "solvable|x", frame)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/warm/export" {
			http.NotFound(w, r)
			return
		}
		if r.URL.Query().Get("max") != "7" {
			t.Errorf("export max = %q, want 7", r.URL.Query().Get("max"))
		}
		if a := r.Header.Get("Accept"); a != wire.MediaTypeWarmSegment {
			t.Errorf("export Accept = %q, want %q", a, wire.MediaTypeWarmSegment)
		}
		w.Header().Set("Content-Type", wire.MediaTypeWarmSegment)
		w.Header().Set("X-Warm-Truncated", "1")
		w.Write(seg)
	}))
	defer ts.Close()

	c := New(ts.URL, Options{})
	entries, truncated, err := c.WarmExport(context.Background(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if !truncated || len(entries) != 2 {
		t.Fatalf("export = %d entries truncated=%v, want 2 and truncated", len(entries), truncated)
	}
	if entries[0].K != "classify|x" || string(entries[0].V) != `{"class":"A"}` {
		t.Fatalf("entry 0 = %q %q", entries[0].K, entries[0].V)
	}
	if entries[1].K != "solvable|x" || !bytes.Equal(entries[1].V, frame) {
		t.Fatalf("entry 1 = %q %x, want the frame verbatim", entries[1].K, entries[1].V)
	}
}
