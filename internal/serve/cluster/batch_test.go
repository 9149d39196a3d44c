package cluster

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"repro/internal/serve"
)

// batchLine is the JSON decode shape of one coordinator stream line
// (the emit side now writes wire.BatchLine; the JSON layout is
// unchanged).
type batchLine struct {
	Index   int             `json:"index"`
	Status  int             `json:"status"`
	Cached  bool            `json:"cached,omitempty"`
	Verdict json.RawMessage `json:"verdict,omitempty"`
	Error   string          `json:"error,omitempty"`
}

// postClusterBatch fires a batch at the coordinator and returns the
// decoded lines sorted by item index (the stream is completion-ordered).
func postClusterBatch(t *testing.T, base, body string) (*http.Response, []batchLine) {
	t.Helper()
	resp, err := http.Post(base+"/v1/solve/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp, nil
	}
	var lines []batchLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 8<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var ln batchLine
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			t.Fatalf("bad cluster batch line %q: %v", sc.Text(), err)
		}
		lines = append(lines, ln)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i].Index < lines[j].Index })
	return resp, lines
}

// TestClusterBatchDifferential routes a mixed batch (fresh items, a
// repeat, an invalid item) through a 3-node cluster and checks every
// per-item verdict against the same queries issued one at a time to a
// lone capserved node.
func TestClusterBatchDifferential(t *testing.T) {
	_, ts, _ := testCluster(t, 3, nil)
	ref := httptest.NewServer(serve.New(serve.Config{MaxHorizon: 13, Logf: quietLogf}).Handler())
	defer ref.Close()

	items := []string{
		`{"scheme":"S1","horizon":3}`,
		`{"scheme":"S2","horizon":4}`,
		`{"scheme":"definitely-not-a-scheme","horizon":2}`,
		`{"scheme":"S1","horizon":3}`,
		`{"scheme":"S2","minus":["(b)"],"horizon":5}`,
	}
	// Prime one item through the coordinator's single path so the batch
	// exercises the cache-hit leg too.
	postJSON(t, ts.URL+"/v1/solvable", items[0])

	resp, lines := postClusterBatch(t, ts.URL, `{"items":[`+strings.Join(items, ",")+`]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster batch = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	if len(lines) != len(items) {
		t.Fatalf("got %d lines, want %d: %+v", len(lines), len(items), lines)
	}
	for i, ln := range lines {
		if ln.Index != i {
			t.Fatalf("after sorting, line %d has index %d — duplicate or missing index", i, ln.Index)
		}
	}
	if lines[2].Status != http.StatusBadRequest || lines[2].Error == "" {
		t.Fatalf("invalid item line = %+v, want per-item 400", lines[2])
	}
	for _, i := range []int{0, 1, 3, 4} {
		if lines[i].Status != http.StatusOK || lines[i].Verdict == nil {
			t.Fatalf("item %d = %+v, want 200 with verdict", i, lines[i])
		}
		rresp, rraw := postJSON(t, ref.URL+"/v1/solvable", items[i])
		if rresp.StatusCode != http.StatusOK {
			t.Fatalf("reference %d = %d: %s", i, rresp.StatusCode, rraw)
		}
		var cv, rv verdict
		if err := json.Unmarshal(lines[i].Verdict, &cv); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(rraw, &rv); err != nil {
			t.Fatal(err)
		}
		if !cv.equal(rv) {
			t.Fatalf("item %d: cluster batch says %+v, single node says %+v", i, cv, rv)
		}
	}

	st := clusterStats(t, ts.URL)
	if st.BatchRequests != 1 || st.BatchItems != int64(len(items)) {
		t.Fatalf("stats batches=%d items=%d, want 1 and %d", st.BatchRequests, st.BatchItems, len(items))
	}
	// Item 0 was primed and item 3 repeats item 0's key: at least one
	// batch member must have been served from the coordinator cache.
	if st.CacheHits == 0 {
		t.Fatal("no coordinator cache hits; batch is not consulting the LRU")
	}
	if !lines[0].Cached {
		t.Fatalf("primed item 0 not marked cached: %+v", lines[0])
	}
	if lines[1].Cached {
		t.Fatalf("fresh item 1 marked cached: %+v", lines[1])
	}
}

// TestClusterBatchSurvivesKilledBackend sends a fresh batch with one
// backend dead: every item must still answer via per-item hedging and
// failover, proving one broken shard cannot sink sibling items.
func TestClusterBatchSurvivesKilledBackend(t *testing.T) {
	_, ts, nodes := testCluster(t, 3, nil)
	nodes[1].kill()

	items := []string{
		`{"scheme":"S1","horizon":5}`,
		`{"scheme":"S2","horizon":6}`,
		`{"scheme":"S1","horizon":4}`,
		`{"scheme":"S2","minus":["(b)"],"horizon":3}`,
	}
	resp, lines := postClusterBatch(t, ts.URL, `{"items":[`+strings.Join(items, ",")+`]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch with dead backend = %d, want 200", resp.StatusCode)
	}
	if len(lines) != len(items) {
		t.Fatalf("got %d lines, want %d", len(lines), len(items))
	}
	for i, ln := range lines {
		if ln.Status != http.StatusOK || ln.Verdict == nil {
			t.Fatalf("item %d with dead backend = %+v, want 200", i, ln)
		}
	}
}

// TestClusterBatchShapeGuards pins the whole-request rejections.
func TestClusterBatchShapeGuards(t *testing.T) {
	_, ts, _ := testCluster(t, 2, nil)
	resp, _ := postClusterBatch(t, ts.URL, `{"items":[]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch = %d, want 400", resp.StatusCode)
	}
	var sb strings.Builder
	sb.WriteString(`{"items":[`)
	for i := 0; i <= clusterBatchMax; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"scheme":"S1","horizon":1}`)
	}
	sb.WriteString(`]}`)
	resp, _ = postClusterBatch(t, ts.URL, sb.String())
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch = %d, want 400", resp.StatusCode)
	}
}

// flushCounter counts the flushes a handler asks of its writer.
type flushCounter struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushCounter) Flush() { f.flushes++; f.ResponseRecorder.Flush() }

// TestClusterBatchAllHitsNoFlush: a batch the coordinator's LRU answers
// whole has no shard round trip to wait on, so its lines go out with
// the response and the handler asks for no flush of its own.
func TestClusterBatchAllHitsNoFlush(t *testing.T) {
	co, _, _ := testCluster(t, 3, nil)
	body := `{"items":[{"scheme":"S1","horizon":1},{"scheme":"S1","horizon":2},{"scheme":"S1","horizon":3}]}`
	var w *flushCounter
	for pass := 0; pass < 2; pass++ {
		w = &flushCounter{ResponseRecorder: httptest.NewRecorder()}
		co.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/solve/batch", strings.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("pass %d: batch = %d: %s", pass, w.Code, w.Body)
		}
	}
	if n := strings.Count(w.Body.String(), `"cached":true`); n != 3 {
		t.Fatalf("second pass has %d coordinator hits, want 3:\n%s", n, w.Body)
	}
	if w.flushes != 0 {
		t.Fatalf("all-hit batch flushed %d times, want 0", w.flushes)
	}
}
