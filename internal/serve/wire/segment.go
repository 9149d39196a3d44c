package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"slices"
)

// Warm segments carry cached verdicts between and across processes:
// they are the on-disk format of the warm verdict store and the body of
// /v1/warm/export. A segment is a 4-byte header followed by
// length-prefixed records
//
//	uvarint(len(k)) k uvarint(len(v)) v
//
// where k is a canonical cache key and v its verdict: a frame when the
// key has a frame kind, the JSON body otherwise (classify,
// which has no frame encoding).

// MediaTypeWarmSegment negotiates a warm segment body over HTTP.
const MediaTypeWarmSegment = "application/x-capwarm-segment"

// segmentMagic opens a segment: two magic bytes (distinct from both '{'
// and a verdict frame's magic) plus a format version.
var segmentMagic = [4]byte{0xCA, 0x57, 'S', 1}

// MaxSegmentField bounds one record's key or value length; a length
// prefix past it is corruption.
const MaxSegmentField = 64 << 20

// segmentChunk is how far a field buffer may run ahead of the bytes
// that have actually arrived: a length prefix is a claim, not an
// allocation request.
const segmentChunk = 64 << 10

// ErrNotSegment reports input that does not start with a segment
// header.
var ErrNotSegment = errors.New("wire: not a warm segment")

var errSegmentField = errors.New("wire: warm segment field exceeds size bound")

// AppendSegmentHeader starts a segment.
func AppendSegmentHeader(dst []byte) []byte {
	return append(dst, segmentMagic[:]...)
}

// AppendSegmentRecord appends one key/value record.
func AppendSegmentRecord(dst []byte, k string, v []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(k)))
	dst = append(dst, k...)
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	return append(dst, v...)
}

// SegmentReader iterates the records of a segment.
type SegmentReader struct {
	br *bufio.Reader
}

// NewSegmentReader consumes and checks the segment header. Input too
// short to hold one, or holding another, is ErrNotSegment.
func NewSegmentReader(r io.Reader) (*SegmentReader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var head [len(segmentMagic)]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, ErrNotSegment
		}
		return nil, err
	}
	if head != segmentMagic {
		return nil, ErrNotSegment
	}
	return &SegmentReader{br: br}, nil
}

// Next returns the next record. io.EOF reports a clean end between
// records; a record cut short is io.ErrUnexpectedEOF. The returned value
// is freshly allocated and owned by the caller.
func (r *SegmentReader) Next() (string, []byte, error) {
	k, err := r.field()
	if err != nil {
		return "", nil, err
	}
	v, err := r.field()
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return "", nil, err
	}
	return string(k), v, nil
}

// field reads one uvarint-prefixed field, growing its buffer only as
// bytes arrive. io.EOF means no byte of the field was present.
func (r *SegmentReader) field() ([]byte, error) {
	n, err := binary.ReadUvarint(r.br)
	if err != nil {
		if err != io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if n > MaxSegmentField {
		return nil, errSegmentField
	}
	b := make([]byte, 0, min(int(n), segmentChunk))
	for len(b) < int(n) {
		if len(b) == cap(b) {
			b = slices.Grow(b, min(int(n)-len(b), len(b)))
		}
		end := min(int(n), cap(b))
		if _, err := io.ReadFull(r.br, b[len(b):end]); err != nil {
			return nil, io.ErrUnexpectedEOF
		}
		b = b[:end]
	}
	return b, nil
}
