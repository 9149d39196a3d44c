// Package wire is the compact binary verdict codec shared by the
// capserved node, the streaming client, the cluster coordinator, and
// the warm verdict store. A verdict travels as one length-prefixed
// frame:
//
//	magic(2) version(1) kind(1) payloadLen(uint32 LE) payload
//
// Payloads are positional field encodings per kind: varint counters
// (unsigned for sizes, zigzag for signed values), length-prefixed
// strings, single-byte bools, and an explicit big-int encoding for
// ConfigsExact so exact configuration counts past int64 survive the
// trip byte-for-byte. A verdict carries the answer and the counts
// behind it, plus one per-request field, cached (always in a frame; in
// JSON only when true). How the engine computed it is not part of the
// reply (capserved's /v1/stats aggregates that), nor is how long it
// took (a single reply's Server-Timing header carries that).
//
// Frames are the only verdict encoding between processes: on disk and
// in warm sync (both as warm segments, see segment.go) and between the
// coordinator and its shards. JSON appears only at the caller-facing
// edge, where it stays the default: every frame kind marshals to
// exactly the compact JSON the service produces (the verdict structs
// live here, with their JSON tags), and FrameToJSON renders it.
// Classify verdicts have no frame kind and are JSON throughout.
// Content negotiation happens over plain HTTP Accept/Content-Type with
// the media types below.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// Media types for content negotiation. A client asks for frames by
// listing the binary type in Accept; the server answers with whichever
// type it actually wrote in Content-Type.
const (
	// MediaTypeVerdict is one verdict frame (single-item endpoints).
	MediaTypeVerdict = "application/x-capverdict"
	// MediaTypeVerdictStream is a sequence of BatchLine frames (batch
	// endpoints) — the binary analogue of application/x-ndjson.
	MediaTypeVerdictStream = "application/x-capverdict-stream"
	// AcceptVerdict / AcceptVerdictStream are the Accept values a
	// binary-capable client sends: frames preferred, JSON accepted.
	AcceptVerdict       = MediaTypeVerdict + ", application/json"
	AcceptVerdictStream = MediaTypeVerdictStream + ", application/x-ndjson"
)

// Frame constants.
const (
	magic0 = 0xCA
	magic1 = 0x7E
	// Version is the frame payload layout version. Decoders reject
	// frames of any other version: a warm store skips the entry and the
	// coordinator refuses such a shard reply, so the verdict is
	// recomputed.
	// Version 2 dropped the engine block's frontier-dedup gauges.
	// Version 3 dropped the engine block.
	// Version 4 dropped Solvable.Shared and the ElapsedMs of Solvable,
	// NetSolvable and Chaos: nodes and coordinators of versions 3 and
	// 4 refuse each other's frames, so upgrade them together.
	Version = 4
	// headerLen is magic(2) + version(1) + kind(1) + length(4).
	headerLen = 8
	// MaxFramePayload bounds one frame's payload; a length field past it
	// is treated as corruption, not an allocation request.
	MaxFramePayload = 64 << 20
)

// Kind identifies a frame's payload type.
type Kind byte

const (
	KindInvalid     Kind = 0
	KindSolvable    Kind = 1
	KindNetSolvable Kind = 2
	KindChaos       Kind = 3
	KindBatchLine   Kind = 4
)

func (k Kind) String() string {
	switch k {
	case KindSolvable:
		return "solvable"
	case KindNetSolvable:
		return "netsolvable"
	case KindChaos:
		return "chaos"
	case KindBatchLine:
		return "batchline"
	}
	return fmt.Sprintf("kind(%d)", byte(k))
}

// ErrNotFrame reports bytes that do not start with a frame header —
// the signal to fall back to the JSON decode path.
var ErrNotFrame = errors.New("wire: not a verdict frame")

// ErrVersion reports a well-formed frame of another layout version.
var ErrVersion = errors.New("wire: unsupported frame version")

var errMalformed = errors.New("wire: malformed frame payload")

// IsFrame reports whether b starts with a verdict frame header.
func IsFrame(b []byte) bool {
	return len(b) >= 2 && b[0] == magic0 && b[1] == magic1
}

// beginFrame appends a frame header for kind with a zero length field
// and returns the payload start offset; endFrame patches the length in.
// Split (rather than taking an encode closure) so hot-path callers pay
// no closure allocation.
func beginFrame(dst []byte, kind Kind) ([]byte, int) {
	dst = append(dst, magic0, magic1, Version, byte(kind), 0, 0, 0, 0)
	return dst, len(dst)
}

func endFrame(dst []byte, start int) []byte {
	binary.LittleEndian.PutUint32(dst[start-4:start], uint32(len(dst)-start))
	return dst
}

// DecodeFrame splits one frame off the front of b: its kind, its
// payload, and the remaining bytes. ErrNotFrame means b is something
// else entirely (JSON, typically); ErrVersion means another layout version.
func DecodeFrame(b []byte) (kind Kind, payload, rest []byte, err error) {
	if !IsFrame(b) {
		return 0, nil, b, ErrNotFrame
	}
	if len(b) < headerLen {
		return 0, nil, b, errMalformed
	}
	if b[2] != Version {
		return 0, nil, b, ErrVersion
	}
	kind = Kind(b[3])
	n := binary.LittleEndian.Uint32(b[4:8])
	if n > MaxFramePayload || int(n) > len(b)-headerLen {
		return 0, nil, b, errMalformed
	}
	return kind, b[headerLen : headerLen+int(n)], b[headerLen+int(n):], nil
}

// Encoding primitives. All integers are varints: unsigned for counts
// and lengths, zigzag for fields that may legitimately be negative.

func appendUint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }
func appendInt(dst []byte, v int64) []byte   { return binary.AppendVarint(dst, v) }

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// Big-decimal markers for appendBigDecimal.
const (
	bigAbsent   = 0 // empty string
	bigInt      = 1 // sign byte + magnitude bytes
	bigVerbatim = 2 // defensive: a string big.Int would not round-trip
)

// appendBigDecimal encodes a decimal integer string (ConfigsExact) as
// sign + magnitude so arbitrarily large exact counts survive without
// ever passing through a float. Strings that are not canonical decimal
// integers travel verbatim instead of being silently canonicalized.
func appendBigDecimal(dst []byte, s string) []byte {
	if s == "" {
		return append(dst, bigAbsent)
	}
	n, ok := new(big.Int).SetString(s, 10)
	if !ok || n.String() != s {
		dst = append(dst, bigVerbatim)
		return appendString(dst, s)
	}
	dst = append(dst, bigInt)
	dst = appendBool(dst, n.Sign() < 0)
	mag := n.Bytes()
	dst = binary.AppendUvarint(dst, uint64(len(mag)))
	return append(dst, mag...)
}

// reader is a fail-latching payload decoder: the first malformed field
// poisons it and every later read returns zero values, so decode code
// reads fields linearly and checks err once.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail() { r.err = errMalformed }

func (r *reader) uint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) int() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) bool() bool {
	if r.err != nil {
		return false
	}
	if len(r.b) < 1 {
		r.fail()
		return false
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v != 0
}

func (r *reader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 1 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *reader) string() string {
	n := r.uint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)) {
		r.fail()
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *reader) bigDecimal() string {
	switch r.byte() {
	case bigAbsent:
		return ""
	case bigVerbatim:
		return r.string()
	case bigInt:
		neg := r.bool()
		n := r.uint()
		if r.err != nil {
			return ""
		}
		if n > uint64(len(r.b)) {
			r.fail()
			return ""
		}
		v := new(big.Int).SetBytes(r.b[:n])
		r.b = r.b[n:]
		if neg {
			v.Neg(v)
		}
		return v.String()
	default:
		if r.err == nil {
			r.fail()
		}
		return ""
	}
}

// FrameScanner reads consecutive frames off an io.Reader — the binary
// analogue of scanning JSON lines from a batch stream. The payload
// buffer is reused across Next calls; callers must finish with a
// payload before asking for the next frame.
type FrameScanner struct {
	r        io.Reader
	maxFrame int
	buf      []byte
}

// NewFrameScanner wraps r; maxFrame bounds one frame's payload
// (values ≤ 0 mean MaxFramePayload).
func NewFrameScanner(r io.Reader, maxFrame int) *FrameScanner {
	if maxFrame <= 0 || maxFrame > MaxFramePayload {
		maxFrame = MaxFramePayload
	}
	return &FrameScanner{r: r, maxFrame: maxFrame}
}

// ErrFrameTooLarge reports a frame whose payload exceeds the scanner's
// configured bound.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size bound")

// Next reads one frame. io.EOF reports a clean end of stream (between
// frames); a header or payload cut short mid-frame is
// io.ErrUnexpectedEOF.
func (s *FrameScanner) Next() (Kind, []byte, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(s.r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil, io.EOF
		}
		return 0, nil, err
	}
	if hdr[0] != magic0 || hdr[1] != magic1 {
		return 0, nil, ErrNotFrame
	}
	if hdr[2] != Version {
		return 0, nil, ErrVersion
	}
	n := binary.LittleEndian.Uint32(hdr[4:8])
	if int64(n) > int64(s.maxFrame) {
		return 0, nil, ErrFrameTooLarge
	}
	if cap(s.buf) < int(n) {
		s.buf = make([]byte, n)
	}
	s.buf = s.buf[:n]
	if _, err := io.ReadFull(s.r, s.buf); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return Kind(hdr[3]), s.buf, nil
}
