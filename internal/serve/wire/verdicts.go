package wire

import (
	"encoding/json"
	"fmt"
)

// The verdict structs live here — with their JSON tags — so the JSON
// bodies the service produces and the binary frames are two
// encodings of one source of truth; internal/serve aliases these
// types. A verdict holds no engine provenance and no timing: the same
// key gets the same verdict however and however fast it was computed.
// Cached (Solvable and NetSolvable) is the one field that varies per
// request; frames always carry it, JSON only when true. How long a
// reply took travels in its Server-Timing header.

// Solvable is the /v1/solvable verdict (bounded-round solvability of a
// two-general omission scheme).
type Solvable struct {
	Scheme   string `json:"scheme"`
	Horizon  int    `json:"horizon"`
	Solvable bool   `json:"solvable"`
	Found    *bool  `json:"found,omitempty"` // minRounds search outcome
	Configs  int    `json:"configs,omitempty"`
	// ConfigsExact carries the exact decimal configuration count when it
	// overflowed the Configs int (deep symbolic horizons); empty otherwise.
	ConfigsExact    string `json:"configsExact,omitempty"`
	Components      int    `json:"components,omitempty"`
	MixedComponents int    `json:"mixedComponents,omitempty"`
	Cached          bool   `json:"cached,omitempty"`
}

func (v *Solvable) appendPayload(dst []byte) []byte {
	dst = appendString(dst, v.Scheme)
	dst = appendInt(dst, int64(v.Horizon))
	dst = appendBool(dst, v.Solvable)
	if v.Found == nil {
		dst = append(dst, 0)
	} else {
		dst = append(dst, 1)
		dst = appendBool(dst, *v.Found)
	}
	dst = appendInt(dst, int64(v.Configs))
	dst = appendBigDecimal(dst, v.ConfigsExact)
	dst = appendInt(dst, int64(v.Components))
	dst = appendInt(dst, int64(v.MixedComponents))
	dst = appendBool(dst, v.Cached)
	return dst
}

func (v *Solvable) decode(r *reader) {
	v.Scheme = r.string()
	v.Horizon = int(r.int())
	v.Solvable = r.bool()
	if r.bool() {
		f := r.bool()
		if r.err == nil {
			v.Found = &f
		}
	}
	v.Configs = int(r.int())
	v.ConfigsExact = r.bigDecimal()
	v.Components = int(r.int())
	v.MixedComponents = int(r.int())
	v.Cached = r.bool()
}

// NetSolvable is the /v1/net/solvable verdict (n-process network
// solvability under f-bounded omissions).
type NetSolvable struct {
	Graph            string `json:"graph"`
	N                int    `json:"n"`
	F                int    `json:"f"`
	Rounds           int    `json:"rounds"`
	Solvable         bool   `json:"solvable"`
	EdgeConnectivity int    `json:"edgeConnectivity"`
	TheoremV1        bool   `json:"theoremV1Solvable"` // f < c(G)
	Cached           bool   `json:"cached,omitempty"`
}

func (v *NetSolvable) appendPayload(dst []byte) []byte {
	dst = appendString(dst, v.Graph)
	dst = appendInt(dst, int64(v.N))
	dst = appendInt(dst, int64(v.F))
	dst = appendInt(dst, int64(v.Rounds))
	dst = appendBool(dst, v.Solvable)
	dst = appendInt(dst, int64(v.EdgeConnectivity))
	dst = appendBool(dst, v.TheoremV1)
	dst = appendBool(dst, v.Cached)
	return dst
}

func (v *NetSolvable) decode(r *reader) {
	v.Graph = r.string()
	v.N = int(r.int())
	v.F = int(r.int())
	v.Rounds = int(r.int())
	v.Solvable = r.bool()
	v.EdgeConnectivity = int(r.int())
	v.TheoremV1 = r.bool()
	v.Cached = r.bool()
}

// ChaosViolation is one property violation found by a chaos campaign.
type ChaosViolation struct {
	Property  string `json:"property"`
	Detail    string `json:"detail"`
	Scenario  string `json:"scenario"`
	Minimized string `json:"minimized,omitempty"`
	Seed      int64  `json:"seed"`
	Execution int    `json:"execution"`
}

// Chaos is the /v1/chaos campaign report.
type Chaos struct {
	Scheme     string           `json:"scheme"`
	Algorithm  string           `json:"algorithm"`
	Seed       int64            `json:"seed"`
	Executions int              `json:"executions"`
	Rounds     int64            `json:"rounds"`
	OK         bool             `json:"ok"`
	Violations []ChaosViolation `json:"violations,omitempty"`
}

func (v *Chaos) appendPayload(dst []byte) []byte {
	dst = appendString(dst, v.Scheme)
	dst = appendString(dst, v.Algorithm)
	dst = appendInt(dst, v.Seed)
	dst = appendInt(dst, int64(v.Executions))
	dst = appendInt(dst, v.Rounds)
	dst = appendBool(dst, v.OK)
	dst = appendUint(dst, uint64(len(v.Violations)))
	for i := range v.Violations {
		cv := &v.Violations[i]
		dst = appendString(dst, cv.Property)
		dst = appendString(dst, cv.Detail)
		dst = appendString(dst, cv.Scenario)
		dst = appendString(dst, cv.Minimized)
		dst = appendInt(dst, cv.Seed)
		dst = appendInt(dst, int64(cv.Execution))
	}
	return dst
}

func (v *Chaos) decode(r *reader) {
	v.Scheme = r.string()
	v.Algorithm = r.string()
	v.Seed = r.int()
	v.Executions = int(r.int())
	v.Rounds = r.int()
	v.OK = r.bool()
	n := r.uint()
	// Each violation costs at least 8 payload bytes (six fields); a
	// count past the remaining bytes is corruption, not an allocation
	// request.
	if r.err == nil && n > uint64(len(r.b)) {
		r.fail()
	}
	if r.err == nil && n > 0 {
		v.Violations = make([]ChaosViolation, 0, n)
		for i := uint64(0); i < n && r.err == nil; i++ {
			v.Violations = append(v.Violations, ChaosViolation{
				Property:  r.string(),
				Detail:    r.string(),
				Scenario:  r.string(),
				Minimized: r.string(),
				Seed:      r.int(),
				Execution: int(r.int()),
			})
		}
	}
}

// BatchLine is one per-item record of a batch response stream, the
// same on a node and a coordinator. Status is what the single-item
// endpoint would have answered for the item; whether a cache answered
// it is the verdict's own cached flag. A line carries no timing (its
// stream's headers are sent before its items finish). Cached is written
// by nothing and kept in the layout until the verdict's own cached flag
// leaves the body. Verdict holds a Solvable, NetSolvable or Chaos,
// value or pointer; a decoded line holds a pointer.
type BatchLine struct {
	Index   int    `json:"index"`
	Status  int    `json:"status"`
	Cached  bool   `json:"cached,omitempty"`
	Verdict any    `json:"verdict,omitempty"`
	Error   string `json:"error,omitempty"`
	DiagID  string `json:"diagId,omitempty"`
}

func (l *BatchLine) appendPayload(dst []byte) ([]byte, error) {
	dst = appendUint(dst, uint64(l.Index))
	dst = appendUint(dst, uint64(l.Status))
	dst = appendBool(dst, l.Cached)
	dst = appendString(dst, l.Error)
	dst = appendString(dst, l.DiagID)
	switch v := l.Verdict.(type) {
	case nil:
		dst = append(dst, byte(KindInvalid))
	case Solvable:
		dst = append(dst, byte(KindSolvable))
		dst = v.appendPayload(dst)
	case NetSolvable:
		dst = append(dst, byte(KindNetSolvable))
		dst = v.appendPayload(dst)
	case Chaos:
		dst = append(dst, byte(KindChaos))
		dst = v.appendPayload(dst)
	case *Solvable:
		dst = append(dst, byte(KindSolvable))
		dst = v.appendPayload(dst)
	case *NetSolvable:
		dst = append(dst, byte(KindNetSolvable))
		dst = v.appendPayload(dst)
	case *Chaos:
		dst = append(dst, byte(KindChaos))
		dst = v.appendPayload(dst)
	default:
		return dst, fmt.Errorf("wire: unencodable batch verdict %T", l.Verdict)
	}
	return dst, nil
}

// AppendVerdictLine appends the KindBatchLine frame of a 200 line at
// index whose verdict is the verdict frame f, byte for byte what
// AppendVerdict(&BatchLine{Index: index, Status: 200, Verdict: v})
// gives for the verdict v that f encodes, without decoding f: a cache
// hit's stored frame becomes its batch line by a copy.
func AppendVerdictLine(dst []byte, index int, f []byte) ([]byte, error) {
	kind, payload, rest, err := DecodeFrame(f)
	if err != nil {
		return dst, err
	}
	if len(rest) != 0 || kind == KindInvalid || kind == KindBatchLine {
		return dst, errMalformed
	}
	dst, start := beginFrame(dst, KindBatchLine)
	dst = appendUint(dst, uint64(index))
	dst = appendUint(dst, 200)
	dst = appendBool(dst, false)
	dst = appendString(dst, "")
	dst = appendString(dst, "")
	dst = append(dst, byte(kind))
	dst = append(dst, payload...)
	return endFrame(dst, start), nil
}

// DecodeBatchLine decodes one KindBatchLine payload. The embedded
// verdict comes back typed (*Solvable, *NetSolvable, *Chaos) or nil.
func DecodeBatchLine(payload []byte) (*BatchLine, error) {
	r := &reader{b: payload}
	l := &BatchLine{
		Index:  int(r.uint()),
		Status: int(r.uint()),
		Cached: r.bool(),
		Error:  r.string(),
		DiagID: r.string(),
	}
	k := Kind(r.byte())
	if r.err != nil {
		return nil, r.err
	}
	if k == KindBatchLine {
		// A line embeds a verdict, never another line: AppendVerdict
		// could not re-encode one.
		return nil, errMalformed
	}
	if k != KindInvalid {
		v, err := unmarshalPayload(k, r.b)
		if err != nil {
			return nil, err
		}
		l.Verdict = v
	}
	return l, nil
}

// AppendVerdict appends v as one frame. Accepted values: Solvable,
// NetSolvable, Chaos (value or pointer), and *BatchLine.
func AppendVerdict(dst []byte, v any) ([]byte, error) {
	switch t := v.(type) {
	case Solvable:
		dst, start := beginFrame(dst, KindSolvable)
		return endFrame(t.appendPayload(dst), start), nil
	case *Solvable:
		dst, start := beginFrame(dst, KindSolvable)
		return endFrame(t.appendPayload(dst), start), nil
	case NetSolvable:
		dst, start := beginFrame(dst, KindNetSolvable)
		return endFrame(t.appendPayload(dst), start), nil
	case *NetSolvable:
		dst, start := beginFrame(dst, KindNetSolvable)
		return endFrame(t.appendPayload(dst), start), nil
	case Chaos:
		dst, start := beginFrame(dst, KindChaos)
		return endFrame(t.appendPayload(dst), start), nil
	case *Chaos:
		dst, start := beginFrame(dst, KindChaos)
		return endFrame(t.appendPayload(dst), start), nil
	case *BatchLine:
		dst, start := beginFrame(dst, KindBatchLine)
		out, err := t.appendPayload(dst)
		if err != nil {
			return out[:start-headerLen], err
		}
		return endFrame(out, start), nil
	default:
		return dst, fmt.Errorf("wire: unencodable verdict %T", v)
	}
}

// Marshal encodes v as one frame in a fresh buffer.
func Marshal(v any) ([]byte, error) {
	return AppendVerdict(nil, v)
}

// unmarshalPayload decodes one payload of the given kind into its typed
// verdict pointer.
func unmarshalPayload(kind Kind, payload []byte) (any, error) {
	r := &reader{b: payload}
	var v any
	switch kind {
	case KindSolvable:
		s := new(Solvable)
		s.decode(r)
		v = s
	case KindNetSolvable:
		s := new(NetSolvable)
		s.decode(r)
		v = s
	case KindChaos:
		s := new(Chaos)
		s.decode(r)
		v = s
	case KindBatchLine:
		return DecodeBatchLine(payload)
	default:
		return nil, fmt.Errorf("wire: unknown frame kind %d", byte(kind))
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 0 {
		// Trailing garbage means a layout mismatch; refuse rather than
		// return a half-right verdict.
		return nil, errMalformed
	}
	return v, nil
}

// Unmarshal decodes the first frame of b into its typed verdict
// (*Solvable, *NetSolvable, *Chaos, or *BatchLine).
func Unmarshal(b []byte) (any, error) {
	kind, payload, _, err := DecodeFrame(b)
	if err != nil {
		return nil, err
	}
	return unmarshalPayload(kind, payload)
}

// UnmarshalInto decodes the first frame of b into dst, which must be a
// pointer to the verdict type matching the frame's kind.
func UnmarshalInto(b []byte, dst any) error {
	kind, payload, _, err := DecodeFrame(b)
	if err != nil {
		return err
	}
	v, err := unmarshalPayload(kind, payload)
	if err != nil {
		return err
	}
	switch d := dst.(type) {
	case *Solvable:
		if s, ok := v.(*Solvable); ok {
			*d = *s
			return nil
		}
	case *NetSolvable:
		if s, ok := v.(*NetSolvable); ok {
			*d = *s
			return nil
		}
	case *Chaos:
		if s, ok := v.(*Chaos); ok {
			*d = *s
			return nil
		}
	case *BatchLine:
		if s, ok := v.(*BatchLine); ok {
			*d = *s
			return nil
		}
	default:
		return fmt.Errorf("wire: cannot decode into %T", dst)
	}
	return fmt.Errorf("wire: frame kind %s does not match %T", kind, dst)
}

// FrameToJSON transcodes one verdict frame into its JSON encoding:
// compact, the service's format, when indent is empty, and indented
// with indent otherwise.
func FrameToJSON(b []byte, indent string) ([]byte, error) {
	v, err := Unmarshal(b)
	if err != nil {
		return nil, err
	}
	if indent == "" {
		return json.Marshal(v)
	}
	return json.MarshalIndent(v, "", indent)
}
