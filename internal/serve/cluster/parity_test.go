package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/wire"
)

// answer is what one path said about one body: the status (a batch
// line's status when the batch streamed) and the error text.
type answer struct {
	status int
	err    string
}

// postSingle sends body to a single-item endpoint.
func postSingle(t *testing.T, url, body string) answer {
	t.Helper()
	resp, raw := postJSON(t, url, body)
	var e struct {
		Error string `json:"error"`
	}
	if resp.StatusCode != http.StatusOK {
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatalf("POST %s: %d with a non-JSON error body %q", url, resp.StatusCode, raw)
		}
	}
	return answer{resp.StatusCode, e.Error}
}

// postOneItemBatch sends body as the only item of a batch: a rejected
// batch answers with its HTTP status, a streamed one with its line.
func postOneItemBatch(t *testing.T, url, body string) answer {
	t.Helper()
	resp, raw := postJSON(t, url, `{"items":[`+body+`]}`)
	var ln struct {
		Status int    `json:"status"`
		Error  string `json:"error"`
	}
	if err := json.Unmarshal(raw, &ln); err != nil {
		t.Fatalf("POST %s: %d with body %q: %v", url, resp.StatusCode, raw, err)
	}
	if resp.StatusCode != http.StatusOK {
		return answer{resp.StatusCode, ln.Error}
	}
	return answer{ln.Status, ln.Error}
}

// TestOneAnswerPerBody sends the same bodies of each verdict class down
// every path — node single and batch, coordinator single with the valid
// key cold and cached, coordinator batch — and requires one status per
// body. A JSON-shape error is a 400 everywhere (a whole-batch 400 on
// the batch paths); a resolve or limit error is a 400 (a per-item line
// on the batch paths), with the same text through the coordinator as
// from a node. The reference node runs the shards' config.
func TestOneAnswerPerBody(t *testing.T) {
	_, ts, _ := testCluster(t, 3, nil)
	ref := httptest.NewServer(serve.New(serve.Config{MaxHorizon: 13, Logf: quietLogf}).Handler())
	defer ref.Close()

	type row struct{ name, body string }
	classes := []struct {
		single, batch string
		rows          []row // the valid body comes last
	}{
		{"/v1/solvable", "/v1/solve/batch", []row{
			{"unknown field", `{"scheme":"S1","horizon":2,"horizn":3}`},
			{"wrong type", `{"scheme":"S1","horizon":"2"}`},
			{"trailing data", `{"scheme":"S1","horizon":2} x`},
			{"past the limit", `{"scheme":"S1","horizon":99}`},
			{"unknown scheme", `{"scheme":"no-such-scheme","horizon":2}`},
			{"valid", `{"scheme":"S1","horizon":2}`},
		}},
		{"/v1/net/solvable", "/v1/net/solve/batch", []row{
			{"unknown field", `{"graph":"cycle","n":4,"f":1,"rounds":2,"round":3}`},
			{"wrong type", `{"graph":"cycle","n":"4","f":1,"rounds":2}`},
			{"trailing data", `{"graph":"cycle","n":4,"f":1,"rounds":2}}`},
			{"past the limit", `{"graph":"cycle","n":4,"f":1,"rounds":99}`},
			{"unknown graph", `{"graph":"no-such-graph","n":4,"f":1,"rounds":2}`},
			{"valid", `{"graph":"cycle","n":4,"f":1,"rounds":2}`},
		}},
		{"/v1/chaos", "/v1/chaos/batch", []row{
			{"unknown field", `{"scheme":"S1","executions":20,"seed":7,"execs":3}`},
			{"wrong type", `{"scheme":"S1","executions":"20","seed":7}`},
			{"trailing data", `{"scheme":"S1","executions":20,"seed":7} []`},
			{"past the limit", `{"scheme":"S1","executions":150000,"seed":7}`},
			{"unknown scheme", `{"scheme":"no-such-scheme","executions":20,"seed":7}`},
			{"valid", `{"scheme":"S1","executions":20,"seed":7}`},
		}},
	}
	for _, cl := range classes {
		// Cold first: the valid key is not cached until its own row.
		cold := make([]answer, len(cl.rows))
		for i, r := range cl.rows {
			cold[i] = postSingle(t, ts.URL+cl.single, r.body)
		}
		for i, r := range cl.rows {
			want := postSingle(t, ref.URL+cl.single, r.body)
			if (r.name == "valid") != (want.status == http.StatusOK) {
				t.Fatalf("%s %s: node answers %d (%s)", cl.single, r.name, want.status, want.err)
			}
			nodeBatch := postOneItemBatch(t, ref.URL+cl.batch, r.body)
			coordBatch := postOneItemBatch(t, ts.URL+cl.batch, r.body)
			warm := postSingle(t, ts.URL+cl.single, r.body)
			got := map[string]int{
				"node batch":                   nodeBatch.status,
				"coordinator single cold":      cold[i].status,
				"coordinator single, key warm": warm.status,
				"coordinator batch":            coordBatch.status,
			}
			for path, status := range got {
				if status != want.status {
					t.Errorf("%s %s: %s answers %d, node single %d (%s)", cl.single, r.name, path, status, want.status, want.err)
				}
			}
			if coordBatch.err != nodeBatch.err {
				t.Errorf("%s %s: coordinator batch says %q, node batch %q", cl.batch, r.name, coordBatch.err, nodeBatch.err)
			}
			for path, a := range map[string]answer{"cold": cold[i], "key warm": warm} {
				if a.err != want.err {
					t.Errorf("%s %s: coordinator single (%s) says %q, node single %q", cl.single, r.name, path, a.err, want.err)
				}
			}
		}
	}
}

// TestClusterBatchShardRejectionLine: an item past the shard's
// MaxHorizon passes the coordinator (it cannot know shard limits) and
// is refused by the shard; its line carries the shard's message, not
// the shard's JSON error body as a string, so it reads exactly as a
// node batch line does.
func TestClusterBatchShardRejectionLine(t *testing.T) {
	_, ts, _ := testCluster(t, 2, nil)
	ref := httptest.NewServer(serve.New(serve.Config{MaxHorizon: 13, Logf: quietLogf}).Handler())
	defer ref.Close()

	const item = `{"scheme":"S1","horizon":14}`
	want := postOneItemBatch(t, ref.URL+"/v1/solve/batch", item)
	if want != (answer{http.StatusBadRequest, "horizon 14 out of range [0, 13]"}) {
		t.Fatalf("node batch line = %+v", want)
	}
	if got := postOneItemBatch(t, ts.URL+"/v1/solve/batch", item); got != want {
		t.Fatalf("coordinator batch line = %+v, node batch line %+v", got, want)
	}
}

// TestCoordinatorRepliesAsNode: on one frozen clock, a coordinator's
// /v1/chaos (JSON and frames), /v1/index and /v1/unindex replies are
// the bytes a lone node answers with, and index and unindex never reach
// a shard.
func TestCoordinatorRepliesAsNode(t *testing.T) {
	frozen := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return frozen }
	newNode := func() *httptest.Server {
		ts := httptest.NewServer(serve.New(serve.Config{MaxHorizon: 13, Logf: quietLogf, Clock: clock}).Handler())
		t.Cleanup(ts.Close)
		return ts
	}
	ref := newNode()
	shards := []string{newNode().URL, newNode().URL}
	_, front := startCoordinator(t, Config{Backends: shards, Clock: clock})

	shardRequests := func() (n int64) {
		for _, base := range shards {
			n += backendRequests(t, base)
		}
		return n
	}
	cases := []struct {
		name, path, accept, body, contentType string
		reachesShard                          bool
	}{
		{"chaos JSON", "/v1/chaos", "", `{"scheme":"S1","executions":20,"seed":7}`, "application/json", true},
		{"chaos frame", "/v1/chaos", wire.AcceptVerdict, `{"scheme":"S1","executions":20,"seed":7}`, wire.MediaTypeVerdict, true},
		{"index", "/v1/index", "", `{"word":"wb."}`, "application/json", false},
		{"unindex", "/v1/unindex", "", `{"rounds":3,"index":"5"}`, "application/json", false},
	}
	for _, c := range cases {
		wresp, want := post(t, ref.URL+c.path, c.accept, c.body)
		if wresp.StatusCode != http.StatusOK || wresp.Header.Get("Content-Type") != c.contentType {
			t.Fatalf("%s: node answers %d %q: %s", c.name, wresp.StatusCode, wresp.Header.Get("Content-Type"), want)
		}
		before := shardRequests()
		resp, got := post(t, front.URL+c.path, c.accept, c.body)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != c.contentType {
			t.Fatalf("%s: coordinator answers %d %q, want 200 %q: %s", c.name, resp.StatusCode, resp.Header.Get("Content-Type"), c.contentType, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: coordinator reply differs from the node's:\ncoordinator %q\nnode        %q", c.name, got, want)
		}
		if moved := shardRequests() - before; moved != 0 && !c.reachesShard {
			t.Fatalf("%s: the shards saw %d requests, want none", c.name, moved)
		}
	}
}
