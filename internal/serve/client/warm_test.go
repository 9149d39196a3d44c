package client

import (
	"bytes"
	"context"
	"encoding/json"
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

// TestMembershipAdminMethods checks the three admin verbs hit the right
// routes with the right payloads.
func TestMembershipAdminMethods(t *testing.T) {
	table := `{"epoch":3,"routable":2,"members":[
		{"backend":"http://a","state":"active","routable":true,"breaker":"closed"},
		{"backend":"http://b","state":"ejected","routable":false,"breaker":"open"}]}`
	var sawPost, sawDelete string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/cluster/members" {
			http.NotFound(w, r)
			return
		}
		switch r.Method {
		case http.MethodPost:
			var req struct {
				Backend string `json:"backend"`
			}
			json.NewDecoder(r.Body).Decode(&req)
			sawPost = req.Backend
		case http.MethodDelete:
			sawDelete = r.URL.Query().Get("backend")
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(table))
	}))
	defer ts.Close()

	c := New(ts.URL, Options{})
	mr, err := c.Members(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if mr.Epoch != 3 || len(mr.Members) != 2 || mr.Members[1].State != "ejected" {
		t.Fatalf("Members = %+v", mr)
	}
	if _, err := c.AddMember(context.Background(), "http://c"); err != nil {
		t.Fatal(err)
	}
	if sawPost != "http://c" {
		t.Fatalf("AddMember posted %q", sawPost)
	}
	if _, err := c.RemoveMember(context.Background(), "http://b"); err != nil {
		t.Fatal(err)
	}
	if sawDelete != "http://b" {
		t.Fatalf("RemoveMember deleted %q", sawDelete)
	}
}
