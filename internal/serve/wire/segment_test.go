package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

type segRecord struct {
	k string
	v []byte
}

// readSegment drains a segment, returning its records and the error
// that ended the scan (io.EOF for a clean end).
func readSegment(t *testing.T, b []byte) ([]segRecord, error) {
	t.Helper()
	sr, err := NewSegmentReader(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	var recs []segRecord
	for {
		k, v, err := sr.Next()
		if err != nil {
			return recs, err
		}
		recs = append(recs, segRecord{k, v})
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	frame, err := Marshal(&Solvable{Scheme: "S1", Horizon: 3, Solvable: true})
	if err != nil {
		t.Fatal(err)
	}
	want := []segRecord{
		{"solvable|S1|h=3|min=false", frame},
		{"classify|S1", []byte(`{"class":"A"}`)},
		{"empty", []byte{}},
		{"big", bytes.Repeat([]byte{0xAB}, 3*segmentChunk+17)},
	}
	seg := AppendSegmentHeader(nil)
	for _, r := range want {
		seg = AppendSegmentRecord(seg, r.k, r.v)
	}
	got, err := readSegment(t, seg)
	if err != io.EOF {
		t.Fatalf("clean segment ended with %v, want io.EOF", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("records = %q, want %q", got, want)
	}

	// Every cut inside the last record is torn, never a clean end.
	last := len(seg) - len(AppendSegmentRecord(nil, "big", want[len(want)-1].v))
	for _, cut := range []int{last + 1, last + 3, last + 5, len(seg) - 1} {
		got, err := readSegment(t, seg[:cut])
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("cut at %d: err = %v, want io.ErrUnexpectedEOF", cut, err)
		}
		if len(got) != len(want)-1 {
			t.Fatalf("cut at %d: %d intact records, want %d", cut, len(got), len(want)-1)
		}
	}
}

func TestSegmentRejectsOtherInput(t *testing.T) {
	for name, b := range map[string][]byte{
		"empty":      nil,
		"short":      {0xCA, 0x57},
		"json-lines": []byte(`{"k":"a","v":{"n":1}}` + "\n"),
		"frame":      {magic0, magic1, Version, byte(KindSolvable), 0, 0, 0, 0},
		"version-2":  {0xCA, 0x57, 'S', 2},
	} {
		if _, err := NewSegmentReader(bytes.NewReader(b)); !errors.Is(err, ErrNotSegment) {
			t.Fatalf("%s: err = %v, want ErrNotSegment", name, err)
		}
	}
	over := binary.AppendUvarint(AppendSegmentHeader(nil), MaxSegmentField+1)
	if _, err := readSegment(t, over); err == nil || err == io.EOF {
		t.Fatalf("field past MaxSegmentField: err = %v, want a corruption error", err)
	}
}

// FuzzWarmSegment throws arbitrary bytes at the segment reader,
// asserting it never panics, never claims a clean end on input it did
// not consume as whole records, and that whatever it reads re-encodes
// to a segment that reads back identically.
func FuzzWarmSegment(f *testing.F) {
	seg := AppendSegmentHeader(nil)
	seg = AppendSegmentRecord(seg, "classify|S1", []byte(`{"class":"A"}`))
	f.Add(seg)
	f.Add(AppendSegmentRecord(seg, "solvable|S1", []byte{magic0, magic1, Version}))
	f.Add(seg[:len(seg)-3])
	f.Add(binary.AppendUvarint(AppendSegmentHeader(nil), MaxSegmentField))
	f.Add([]byte(strings.Repeat(`{"k":"a","v":1}`+"\n", 2)))

	f.Fuzz(func(t *testing.T, b []byte) {
		recs, err := readSegment(t, b)
		if errors.Is(err, ErrNotSegment) {
			return
		}
		re := AppendSegmentHeader(nil)
		for _, r := range recs {
			re = AppendSegmentRecord(re, r.k, r.v)
		}
		if err == io.EOF && len(re) > len(b) {
			t.Fatalf("clean end after reading %d record bytes from a %d-byte input", len(re), len(b))
		}
		back, rerr := readSegment(t, re)
		if rerr != io.EOF {
			t.Fatalf("re-encoded segment ended with %v, want io.EOF", rerr)
		}
		if len(back) != len(recs) || (len(recs) > 0 && !reflect.DeepEqual(back, recs)) {
			t.Fatalf("re-encoded segment reads %q, want %q", back, recs)
		}
	})
}

// TestSegmentBoundsClaimedLength: a length prefix is a claim, not an
// allocation request. Readers take segments they did not write (a warm
// export body, a store file on disk), so an 8-byte segment, the header
// plus a uvarint claiming a MaxSegmentField key, must cost well under
// 1 MiB to read.
func TestSegmentBoundsClaimedLength(t *testing.T) {
	body := binary.AppendUvarint(AppendSegmentHeader(nil), MaxSegmentField)
	if len(body) != 8 {
		t.Fatalf("body is %d bytes, want 8", len(body))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sr, err := NewSegmentReader(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = sr.Next()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Next on a torn record = %v, want io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("reading an 8-byte segment allocated %d bytes, want well under 1 MiB", got)
	}
}
