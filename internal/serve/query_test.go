package serve

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParseQuery drives the shared strict parse of every verdict class
// with arbitrary bodies. It must never panic, and a body it accepts must
// re-encode (Query.Body, the form the coordinator forwards batch items
// in) to a body that parses back to the same key and re-encodes
// identically.
func FuzzParseQuery(f *testing.F) {
	classes := []*Class{Classify, Solvable, NetSolvable, Chaos}
	seeds := [][]string{
		{`{"scheme":"S1"}`, `{"expr":"[.w]^w | [.b]^w"}`, `{"scheme":"S2","minus":["(b)"]}`},
		{
			`{"scheme":"S1","horizon":2,"horizn":3}`,
			`{"scheme":"S1","horizon":"2"}`,
			`{"scheme":"S1","horizon":2} x`,
			`{"scheme":"S1","horizon":99}`,
			`{"scheme":"no-such-scheme","horizon":2}`,
			`{"scheme":"S1","horizon":2}`,
			`{"scheme":"S2","minRounds":true,"maxHorizon":5}`,
		},
		{
			`{"graph":"cycle","n":4,"f":1,"rounds":2,"round":3}`,
			`{"graph":"cycle","n":"4","f":1,"rounds":2}`,
			`{"graph":"cycle","n":4,"f":1,"rounds":2}}`,
			`{"graph":"cycle","n":4,"f":1,"rounds":99}`,
			`{"graph":"no-such-graph","n":4,"f":1,"rounds":2}`,
			`{"graph":"cycle","n":4,"f":1,"rounds":2}`,
			`{"graph":"custom","edges":"0-1,1-2,2-0","f":1,"rounds":2}`,
		},
		{
			`{"scheme":"S1","executions":20,"seed":7,"execs":3}`,
			`{"scheme":"S1","executions":"20","seed":7}`,
			`{"scheme":"S1","executions":20,"seed":7} []`,
			`{"scheme":"S1","executions":1000000,"seed":7}`,
			`{"scheme":"no-such-scheme","executions":20,"seed":7}`,
			`{"scheme":"S1","executions":20,"seed":7}`,
		},
	}
	for c, bodies := range seeds {
		for _, b := range bodies {
			f.Add(uint8(c), []byte(b))
		}
	}
	f.Fuzz(func(t *testing.T, c uint8, body []byte) {
		cl := classes[int(c)%len(classes)]
		q, err := cl.Parse(body)
		if err != nil {
			return
		}
		re, err := q.Body()
		if err != nil {
			t.Fatalf("%s: re-encoding accepted body %q: %v", cl.Path, body, err)
		}
		q2, err := cl.Parse(re)
		if err != nil {
			t.Fatalf("%s: %q re-encodes to %q, which does not parse: %v", cl.Path, body, re, err)
		}
		if q2.Key != q.Key {
			t.Fatalf("%s: %q keys to %q, its re-encoding %q to %q", cl.Path, body, q.Key, re, q2.Key)
		}
		if re2, err := q2.Body(); err != nil || !bytes.Equal(re2, re) {
			t.Fatalf("%s: re-encoding is not stable: %q then %q (%v)", cl.Path, re, re2, err)
		}
	})
}

// TestResolveRejectsUnbuildable pins that a selector naming an
// unbuildable scheme or topology is a resolve error, a 400 on every
// tier, where it used to panic or demand an unbounded allocation while
// building.
func TestResolveRejectsUnbuildable(t *testing.T) {
	for _, body := range []string{
		`{"scheme":"S0","minus":["(x)"]}`, // a double omission removed from a Γ-scheme
		`{"graph":"complete","n":-1,"f":0,"rounds":1}`,
		`{"graph":"cycle","n":1000000000,"f":0,"rounds":1}`,
		`{"graph":"hypercube","d":40,"f":0,"rounds":1}`,
		`{"graph":"grid","w":100000,"h":100000,"f":0,"rounds":1}`,
		`{"graph":"custom","edges":"0-1,1-99999999999","f":0,"rounds":1}`,
	} {
		cl := NetSolvable
		if strings.Contains(body, "scheme") {
			cl = Solvable
		}
		if _, err := cl.Parse([]byte(body)); err == nil {
			t.Errorf("%s resolved", body)
		}
	}
	if _, err := NetSolvable.Parse([]byte(`{"graph":"custom","edges":"0-1,1-63","f":0,"rounds":1}`)); err != nil {
		t.Errorf("a 64-vertex custom graph: %v", err)
	}
}
