package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/big"
	"reflect"
	"strings"
	"testing"
)

// The differential suite: for every verdict shape the service can
// produce, the binary frame and the JSON body must decode to the same
// value, and rendering a frame as JSON must be lossless. This is the
// contract that lets frames be the only encoding between processes
// while JSON stays byte-identical at the caller-facing edge.

// configsExactDeep is 4·3^40 — the exact configuration count of a deep
// symbolic horizon, well past int64. ISSUE 10 pins that it survives the
// frame byte-for-byte.
func configsExactDeep() string {
	n := new(big.Int).Exp(big.NewInt(3), big.NewInt(40), nil)
	return n.Mul(n, big.NewInt(4)).String()
}

func solvableShapes() map[string]*Solvable {
	found := true
	notFound := false
	return map[string]*Solvable{
		"minimal": {Scheme: "S1", Horizon: 3, Solvable: true, Configs: 81, ElapsedMs: 2},
		"full": {
			Scheme: "S2-(b)", Horizon: 11, Solvable: false, Found: &notFound,
			Configs: 1 << 30, Components: 17, MixedComponents: 3,
			Cached: true, Shared: true, ElapsedMs: 918,
		},
		"exact-overflow": {
			Scheme: "S1", Horizon: 40, Solvable: true, Found: &found,
			Configs: math.MaxInt32, ConfigsExact: configsExactDeep(),
			ElapsedMs: 100_000,
		},
		"negative-exact": {Scheme: "S1", Horizon: 1, ConfigsExact: "-12345678901234567890123456789"},
		"verbatim-exact": {Scheme: "S1", Horizon: 1, ConfigsExact: "007"}, // non-canonical: travels verbatim
	}
}

func netShapes() map[string]*NetSolvable {
	return map[string]*NetSolvable{
		"minimal": {Graph: "K4", N: 4, F: 1, Rounds: 2, Solvable: true, EdgeConnectivity: 3, TheoremV1: true, ElapsedMs: 1},
		"full": {
			Graph: "cycle:9", N: 9, F: 2, Rounds: 8, Solvable: false,
			EdgeConnectivity: 2, TheoremV1: false,
			Cached: true, ElapsedMs: 4321,
		},
	}
}

func chaosShapes() map[string]*Chaos {
	return map[string]*Chaos{
		"clean": {Scheme: "S1", Algorithm: "alternating", Seed: -42, Executions: 1000, Rounds: 31337, OK: true, ElapsedMs: 77},
		"violations": {
			Scheme: "S2", Algorithm: "greedy", Seed: 9, Executions: 64, Rounds: 512, OK: false,
			Violations: []ChaosViolation{
				{Property: "agreement", Detail: "split decision", Scenario: "0:ab 1:-b", Minimized: "0:a", Seed: 3, Execution: 17},
				{Property: "validity", Detail: "decided 1 on all-0", Scenario: "…", Seed: -8, Execution: 2},
			},
			ElapsedMs: 5,
		},
	}
}

// roundTrip pins frame → typed decode == original, and that the JSON of
// the decoded value matches the JSON of the original (binary == JSON).
func roundTrip(t *testing.T, v any) {
	t.Helper()
	frame, err := Marshal(v)
	if err != nil {
		t.Fatalf("Marshal(%T): %v", v, err)
	}
	if !IsFrame(frame) {
		t.Fatalf("Marshal(%T) did not produce a frame", v)
	}
	back, err := Unmarshal(frame)
	if err != nil {
		t.Fatalf("Unmarshal(%T): %v", v, err)
	}
	if !reflect.DeepEqual(back, v) {
		t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", back, v)
	}
	wantJSON, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := FrameToJSON(frame, "")
	if err != nil {
		t.Fatalf("FrameToJSON: %v", err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("FrameToJSON != json.Marshal:\n got %s\nwant %s", gotJSON, wantJSON)
	}
}

func TestSolvableRoundTrip(t *testing.T) {
	for name, v := range solvableShapes() {
		t.Run(name, func(t *testing.T) { roundTrip(t, v) })
	}
}

func TestNetSolvableRoundTrip(t *testing.T) {
	for name, v := range netShapes() {
		t.Run(name, func(t *testing.T) { roundTrip(t, v) })
	}
}

func TestChaosRoundTrip(t *testing.T) {
	for name, v := range chaosShapes() {
		t.Run(name, func(t *testing.T) { roundTrip(t, v) })
	}
}

// TestConfigsExactSurvivesExactly is the headline exact-count
// differential: a ConfigsExact of 4·3^40 must come back byte-identical
// through the frame, its JSON rendering, and a JSON decode re-encoded
// as a frame.
func TestConfigsExactSurvivesExactly(t *testing.T) {
	exact := configsExactDeep()
	v := &Solvable{Scheme: "S1", Horizon: 40, Solvable: true, Configs: -1, ConfigsExact: exact}
	frame, err := Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var dec Solvable
	if err := UnmarshalInto(frame, &dec); err != nil {
		t.Fatal(err)
	}
	if dec.ConfigsExact != exact {
		t.Fatalf("frame decode: ConfigsExact = %q, want %q", dec.ConfigsExact, exact)
	}
	j, err := FrameToJSON(frame, "")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(j), `"configsExact":"`+exact+`"`) {
		t.Fatalf("transcoded JSON lost the exact count: %s", j)
	}
	var fromJSON Solvable
	if err := json.Unmarshal(j, &fromJSON); err != nil {
		t.Fatal(err)
	}
	back, err := Marshal(&fromJSON)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, frame) {
		t.Fatalf("JSON decode re-encoded is not byte-identical to the original frame")
	}
}

// TestJSONDecodeMatchesFrameDecode pins the edge contract for every
// shape: a caller decoding the JSON body gets exactly the value a caller
// decoding the frame gets.
func TestJSONDecodeMatchesFrameDecode(t *testing.T) {
	check := func(t *testing.T, v, fromJSON any) {
		t.Helper()
		j, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(j, fromJSON); err != nil {
			t.Fatal(err)
		}
		frame, err := Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		fromFrame, err := Unmarshal(frame)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fromFrame, fromJSON) {
			t.Fatalf("frame decode != JSON decode:\n got %#v\nwant %#v", fromFrame, fromJSON)
		}
	}
	for name, v := range solvableShapes() {
		t.Run("solvable/"+name, func(t *testing.T) { check(t, v, new(Solvable)) })
	}
	for name, v := range netShapes() {
		t.Run("netsolvable/"+name, func(t *testing.T) { check(t, v, new(NetSolvable)) })
	}
	for name, v := range chaosShapes() {
		t.Run("chaos/"+name, func(t *testing.T) { check(t, v, new(Chaos)) })
	}
}

func TestBatchLineRoundTrip(t *testing.T) {
	lines := map[string]*BatchLine{
		"ok-solvable":  {Index: 0, Status: 200, Verdict: solvableShapes()["full"]},
		"ok-net":       {Index: 3, Status: 200, Cached: true, Verdict: netShapes()["full"]},
		"ok-chaos":     {Index: 9, Status: 200, Verdict: chaosShapes()["violations"]},
		"bad-request":  {Index: 1, Status: 400, Error: "unknown scheme \"nope\""},
		"engine-panic": {Index: 2, Status: 500, Error: "internal analysis fault", DiagID: "diag-123"},
		"deadline":     {Index: 4, Status: 504, Error: "analysis deadline exceeded"},
		"empty":        {},
	}
	for name, l := range lines {
		t.Run(name, func(t *testing.T) {
			frame, err := Marshal(l)
			if err != nil {
				t.Fatal(err)
			}
			kind, payload, rest, err := DecodeFrame(frame)
			if err != nil || kind != KindBatchLine || len(rest) != 0 {
				t.Fatalf("DecodeFrame = %v,%d rest=%d, want KindBatchLine", err, kind, len(rest))
			}
			back, err := DecodeBatchLine(payload)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back, l) {
				t.Fatalf("batch line mismatch:\n got %#v\nwant %#v", back, l)
			}
			// Binary == JSON for the whole line.
			wantJSON, _ := json.Marshal(l)
			gotJSON, _ := json.Marshal(back)
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Fatalf("batch line JSON mismatch:\n got %s\nwant %s", gotJSON, wantJSON)
			}
		})
	}
}

func TestUnmarshalIntoKindMismatch(t *testing.T) {
	frame, _ := Marshal(&Solvable{Scheme: "S1"})
	var n NetSolvable
	if err := UnmarshalInto(frame, &n); err == nil {
		t.Fatal("decoding a solvable frame into NetSolvable succeeded")
	}
}

func TestDecodeFrameErrors(t *testing.T) {
	frame, _ := Marshal(&Solvable{Scheme: "S1", Horizon: 3})
	cases := map[string][]byte{
		"json":           []byte(`{"scheme":"S1"}`),
		"empty":          nil,
		"short-header":   frame[:4],
		"short-payload":  frame[:len(frame)-1],
		"future-version": append([]byte{magic0, magic1, Version + 1}, frame[3:]...),
		"huge-length":    {magic0, magic1, Version, byte(KindSolvable), 0xFF, 0xFF, 0xFF, 0xFF},
	}
	for name, b := range cases {
		t.Run(name, func(t *testing.T) {
			if _, _, _, err := DecodeFrame(b); err == nil {
				t.Fatalf("DecodeFrame(%q) succeeded", name)
			}
			if _, err := Unmarshal(b); err == nil {
				t.Fatalf("Unmarshal(%q) succeeded", name)
			}
		})
	}
	if _, _, _, err := DecodeFrame([]byte("{}")); !errors.Is(err, ErrNotFrame) {
		t.Fatalf("JSON body = %v, want ErrNotFrame", err)
	}
}

func TestTrailingGarbageRejected(t *testing.T) {
	frame, _ := Marshal(&Solvable{Scheme: "S1"})
	// Corrupt: grow the payload without the struct knowing.
	grown := append(bytes.Clone(frame), 0, 0, 0)
	grown[4] += 3 // patch the length field
	if _, err := Unmarshal(grown); err == nil {
		t.Fatal("payload with trailing garbage decoded successfully")
	}
}

func TestFrameScanner(t *testing.T) {
	var stream []byte
	want := []*BatchLine{
		{Index: 0, Status: 200, Verdict: solvableShapes()["minimal"]},
		{Index: 1, Status: 400, Error: "bad"},
		{Index: 2, Status: 200, Verdict: chaosShapes()["clean"]},
	}
	for _, l := range want {
		var err error
		stream, err = AppendVerdict(stream, l)
		if err != nil {
			t.Fatal(err)
		}
	}

	sc := NewFrameScanner(bytes.NewReader(stream), 0)
	var got []*BatchLine
	for {
		kind, payload, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if kind != KindBatchLine {
			t.Fatalf("kind = %v", kind)
		}
		l, err := DecodeBatchLine(payload)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, l)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scanned lines mismatch:\n got %#v\nwant %#v", got, want)
	}

	// A stream cut mid-frame is ErrUnexpectedEOF, not a clean EOF.
	sc = NewFrameScanner(bytes.NewReader(stream[:len(stream)-3]), 0)
	var err error
	for err == nil {
		_, _, err = sc.Next()
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn stream = %v, want io.ErrUnexpectedEOF", err)
	}

	// A frame past the scanner's bound is ErrFrameTooLarge.
	sc = NewFrameScanner(bytes.NewReader(stream), 4)
	if _, _, err := sc.Next(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame = %v, want ErrFrameTooLarge", err)
	}
}

// FuzzWireFrameDecode throws arbitrary bytes at the full decode surface
// — DecodeFrame, Unmarshal, DecodeBatchLine, FrameScanner — asserting
// it never panics and that anything that decodes re-encodes decodably
// (frames are canonical for typed verdicts).
func FuzzWireFrameDecode(f *testing.F) {
	for _, v := range []any{
		&Solvable{Scheme: "S1", Horizon: 3, Solvable: true, ConfigsExact: configsExactDeep(), Components: 2, MixedComponents: 1},
		&NetSolvable{Graph: "K4", N: 4, F: 1},
		&Chaos{Scheme: "S1", Violations: []ChaosViolation{{Property: "agreement"}}},
		&BatchLine{Index: 1, Status: 200, Verdict: &Solvable{Scheme: "S2"}},
	} {
		frame, err := Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add([]byte(`{"scheme":"S1","horizon":3}`))
	f.Add([]byte{magic0, magic1, Version, byte(KindChaos), 4, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0x7F})

	f.Fuzz(func(t *testing.T, b []byte) {
		v, err := Unmarshal(b)
		if err != nil {
			return
		}
		// Whatever decoded must re-encode, and the re-encoding must
		// decode to the same value (canonical round trip).
		frame, err := Marshal(v)
		if err != nil {
			t.Fatalf("decoded %T but re-encode failed: %v", v, err)
		}
		back, err := Unmarshal(frame)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !reflect.DeepEqual(back, v) {
			t.Fatalf("canonical round trip diverged:\n got %#v\nwant %#v", back, v)
		}
		// And the JSON transcode must work for every decodable frame.
		if _, err := FrameToJSON(frame, ""); err != nil {
			t.Fatalf("FrameToJSON on canonical frame: %v", err)
		}

		// The scanner must agree with the one-shot decoder on the first
		// frame.
		sc := NewFrameScanner(bytes.NewReader(b), 0)
		if _, _, err := sc.Next(); err != nil {
			t.Fatalf("Unmarshal decoded but FrameScanner failed: %v", err)
		}
	})
}
