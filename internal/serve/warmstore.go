package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"repro/internal/serve/wire"
)

// VerdictStore is the persistent half of the verdict cache: an
// append-only wire warm segment mapping canonical cache keys to
// verdicts — frames, or JSON bodies for classify keys. It is a log, not
// an index: nothing of it stays in memory. A node opens it at boot,
// preloads its newest CacheEntries verdicts into the LRU (KeepNewest) —
// so a restart serves recently computed answers instantly instead of
// re-running the engine — and from then on only appends. A cluster
// coordinator's store is the same.
//
// The file is the durability story, not a database: writes are appended
// under a mutex with no fsync, a key recomputed after an LRU eviction is
// appended again (later records win on load), and a torn tail (crash
// mid-append) is dropped on load. The store is a cache — a file it
// cannot read costs recomputation, never correctness — so a file that
// is not a segment (a JSON-lines store from an earlier release, or
// anything else) opens as zero entries and is discarded. The load path
// rewrites the file when it was discarded, when it ends in a torn tail
// (appends must not land behind one), or when the dead weight
// (duplicate or torn records) crosses a threshold; KeepNewest rewrites
// it to just the preloaded records. A rewrite writes a temp file in the
// same directory that is atomically renamed over the original, so a
// crash mid-rewrite leaves either the old file or the new one, never a
// hybrid. Verdicts are deterministic facts about automata, so replaying
// a stale store can only miss entries, never serve wrong ones — the
// consistency caveats are spelled out in DESIGN.md.
type VerdictStore struct {
	mu   sync.Mutex
	f    *os.File
	path string
	// records counts the live records loaded (or kept by KeepNewest)
	// plus every record appended since: one per Append, duplicates
	// included.
	records int
	// compacted reports how many dead records the load-time compaction
	// dropped (0 when it didn't run); discarded reports that the file
	// was not a segment and was replaced by an empty one.
	compacted int
	discarded bool
}

// VerdictRecord is one stored verdict: a canonical cache key and its
// stored form (a frame, or a JSON body for classify keys).
type VerdictRecord struct {
	Key string
	Val []byte
}

// warmCompactMinWaste is how many dead records (duplicates, torn tails)
// the load path tolerates before rewriting the file. Small enough that a
// store thrashed by restarts self-heals quickly, large enough that a
// handful of duplicates never triggers a rewrite.
const warmCompactMinWaste = 64

// OpenVerdictStore opens (creating if absent) the store at path and
// returns it together with every live record on disk, oldest first:
// each key once, holding its last write, at that write's position. The
// file is rewritten first when it is not a segment, ends torn, or
// carries dead records past the threshold. A non-segment or torn file
// that cannot be rewritten is refused with an error: appending to it
// would bury every later record.
func OpenVerdictStore(path string) (*VerdictStore, []VerdictRecord, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("warm store: %w", err)
	}
	s := &VerdictStore{f: f, path: path}
	recs, rawRecords, torn, err := s.load()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	s.records = len(recs)
	waste := rawRecords - len(recs)
	if mustRewrite := s.discarded || torn; mustRewrite || waste >= warmCompactMinWaste {
		err := s.compact(recs)
		if err == nil {
			s.compacted = waste
			return s, recs, nil
		}
		if mustRewrite {
			s.f.Close()
			return nil, nil, fmt.Errorf("warm store: rewriting %s: %w", path, err)
		}
		// Compacting away duplicates is an optimization; a failure
		// (read-only temp dir, disk full) must not refuse the store.
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("warm store: %w", err)
	}
	return s, recs, nil
}

// load reads every well-formed record. A zero-length file is
// initialized as a segment; a file that is not a segment sets
// s.discarded and loads nothing. Returns the live records oldest first
// (lastWrites), the raw record count (for waste accounting; a torn tail
// counts as one), and whether the file ended torn.
func (s *VerdictStore) load() ([]VerdictRecord, int, bool, error) {
	fi, err := s.f.Stat()
	if err != nil {
		return nil, 0, false, fmt.Errorf("warm store: %w", err)
	}
	if fi.Size() == 0 {
		// Fresh store: stamp the segment header now so a crash before
		// the first append still leaves a well-formed file.
		if _, err := s.f.Write(wire.AppendSegmentHeader(nil)); err != nil {
			return nil, 0, false, fmt.Errorf("warm store: %w", err)
		}
		return nil, 0, false, nil
	}
	sr, err := wire.NewSegmentReader(s.f)
	if errors.Is(err, wire.ErrNotSegment) {
		s.discarded = true
		return nil, 0, false, nil
	}
	if err != nil {
		return nil, 0, false, fmt.Errorf("warm store: reading %s: %w", s.path, err)
	}
	var all []VerdictRecord
	for {
		k, v, err := sr.Next()
		if err == io.EOF {
			return lastWrites(all), len(all), false, nil
		}
		if err != nil {
			// Everything after a bad record is unrecoverable: there is
			// no boundary to resync on.
			return lastWrites(all), len(all) + 1, true, nil
		}
		all = append(all, VerdictRecord{Key: k, Val: v})
	}
}

// lastWrites keeps the last record of each key, in the order of those
// last records, reusing all's backing array.
func lastWrites(all []VerdictRecord) []VerdictRecord {
	seen := make(map[string]struct{}, len(all))
	w := len(all)
	for i := len(all) - 1; i >= 0; i-- {
		if _, dup := seen[all[i].Key]; dup {
			continue
		}
		seen[all[i].Key] = struct{}{}
		w--
		all[w] = all[i]
	}
	clear(all[:w])
	return all[w:]
}

// compact rewrites the store to hold exactly recs, in order, via a temp
// file in the same directory and an atomic rename, then swaps the
// store's handle to the fresh file. Order is kept because it is the
// recency the next boot preloads by. Caller holds s exclusively (open
// time) or s.mu.
func (s *VerdictStore) compact(recs []VerdictRecord) error {
	dir, base := filepath.Dir(s.path), filepath.Base(s.path)
	tmp, err := os.CreateTemp(dir, base+".compact-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	w := bufio.NewWriter(tmp)
	if _, err := w.Write(wire.AppendSegmentHeader(nil)); err != nil {
		tmp.Close()
		return err
	}
	var rec []byte
	for _, r := range recs {
		rec = wire.AppendSegmentRecord(rec[:0], r.Key, r.Val)
		if _, err := w.Write(rec); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return err
	}
	// Sync before rename: the rename must never land a file whose data
	// is still only in the page cache when the machine dies.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := os.Rename(tmp.Name(), s.path); err != nil {
		tmp.Close()
		return err
	}
	old := s.f
	s.f = tmp
	old.Close()
	if _, err := s.f.Seek(0, io.SeekEnd); err != nil {
		return err
	}
	return nil
}

// KeepNewest selects the newest max records of recs that usable accepts
// — recs oldest first, as OpenVerdictStore returned them — and, when
// that drops any record, rewrites the file to exactly the selection, so
// a boot carries forward no more than one cache's worth of verdicts.
// It returns the selection oldest first, ready to be put into an LRU in
// recency order. A failed rewrite leaves the file as it was (the next
// boot retries) and is returned alongside the selection: the store
// stays usable.
func (s *VerdictStore) KeepNewest(recs []VerdictRecord, max int, usable func(key string, val []byte) bool) ([]VerdictRecord, error) {
	kept := make([]VerdictRecord, 0, min(max, len(recs)))
	for i := len(recs) - 1; i >= 0 && len(kept) < max; i-- {
		if usable(recs[i].Key, recs[i].Val) {
			kept = append(kept, recs[i])
		}
	}
	slices.Reverse(kept)
	if len(kept) == len(recs) {
		return kept, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return kept, fmt.Errorf("warm store: closed")
	}
	if err := s.compact(kept); err != nil {
		return kept, fmt.Errorf("warm store: rewriting %s to its newest %d records: %w", s.path, len(kept), err)
	}
	s.records = len(kept)
	return kept, nil
}

// Compacted reports how many dead records the load-time rewrite
// removed (0 when the store was clean enough to keep).
func (s *VerdictStore) Compacted() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compacted
}

// Discarded reports that the file was not a warm segment and was
// replaced by an empty one at open.
func (s *VerdictStore) Discarded() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.discarded
}

// Append persists one verdict. It does not look for the key on disk: a
// verdict recomputed after an LRU eviction is appended again, and the
// next load keeps only the later record.
func (s *VerdictStore) Append(key string, v []byte) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return fmt.Errorf("warm store: closed")
	}
	if _, err := s.f.Write(wire.AppendSegmentRecord(nil, key, v)); err != nil {
		return fmt.Errorf("warm store: appending to %s: %w", s.path, err)
	}
	s.records++
	return nil
}

// Len reports the records loaded at open (or kept by KeepNewest) plus
// the records appended since.
func (s *VerdictStore) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.records
}

// Close flushes and closes the backing file. Append after Close errors.
func (s *VerdictStore) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}

// classForKey is the verdict class a cache key names, by its prefix;
// nil for anything else.
func classForKey(key string) *Class {
	op, _, _ := strings.Cut(key, "|")
	switch op {
	case "classify":
		return Classify
	case "solvable":
		return Solvable
	case "netsolve":
		return NetSolvable
	}
	return nil
}

// decodeVerdict turns a stored verdict back into the response value
// its cache-key prefix names (Class.Decode). Anything else — unknown
// prefixes, frames of another version or kind, entries written by a
// newer binary — is skipped and recomputed on demand.
func decodeVerdict(key string, raw []byte) (any, bool) {
	if cl := classForKey(key); cl != nil {
		return cl.Decode(raw)
	}
	return nil, false
}

// Decode turns a stored or another server's verdict of the class into
// the response value the cache holds (typed: handlers type-assert it):
// a current-version frame of exactly the class's kind, or JSON for
// classify, which has no frame kind. Cached is zeroed: it belongs to
// the answer, not the verdict.
func (c *Class) Decode(raw []byte) (any, bool) {
	if c.Kind == wire.KindInvalid {
		var v ClassifyResponse
		if json.Unmarshal(raw, &v) != nil {
			return nil, false
		}
		v.Cached = false
		return v, true
	}
	kind, _, rest, err := wire.DecodeFrame(raw)
	if err != nil || kind != c.Kind || len(rest) != 0 {
		return nil, false
	}
	v, err := wire.Unmarshal(raw)
	if err != nil {
		return nil, false
	}
	switch t := v.(type) {
	case *wire.Solvable:
		t.Cached = false
		return *t, true
	case *wire.NetSolvable:
		t.Cached = false
		return *t, true
	case *wire.Chaos:
		return *t, true
	}
	return nil, false
}

// encodeVerdict renders a cached verdict in its stored form — a frame
// when the key's class has a frame kind, JSON (classify) otherwise — for
// the warm store and /v1/warm/export. ok=false marks values that would
// not decode back (foreign LRU entries, unencodable values).
func encodeVerdict(key string, val any) ([]byte, bool) {
	marshal := wire.Marshal
	if classForKey(key) == Classify {
		marshal = json.Marshal
	}
	b, err := marshal(val)
	if err != nil {
		return nil, false
	}
	_, ok := decodeVerdict(key, b)
	return b, ok
}

// attachWarmStore wires the warm store into the result cache: its
// newest CacheEntries decodable verdicts are preloaded into the LRU, the
// file is rewritten to just those, and fresh successes are appended
// (persistVerdict). Store errors degrade to a log line — a broken warm
// store must never take down serving.
func (s *Server) attachWarmStore(path string) {
	store, recs, err := OpenVerdictStore(path)
	if err != nil {
		s.cfg.Logf("capserved: warm store disabled: %v", err)
		return
	}
	if store.Discarded() {
		s.cfg.Logf("capserved: warm store %s is not a warm segment; discarded it", path)
	}
	if n := store.Compacted(); n > 0 {
		s.cfg.Logf("capserved: warm store %s compacted (%d dead records dropped)", path, n)
	}
	kept, err := store.KeepNewest(recs, s.cfg.CacheEntries, func(k string, raw []byte) bool {
		_, ok := decodeVerdict(k, raw)
		return ok
	})
	if err != nil {
		s.cfg.Logf("capserved: %v", err)
	}
	for _, r := range kept {
		v, _ := decodeVerdict(r.Key, r.Val)
		s.cache.put(r.Key, v)
	}
	s.warm, s.warmLoaded = store, len(kept)
	s.cfg.Logf("capserved: warm store %s preloaded the newest %d of %d verdicts", path, len(kept), len(recs))
}

// persistVerdict appends a fresh singleflight success to the warm
// store, in its stored form (encodeVerdict). Without an attached store
// this is a no-op.
func (s *Server) persistVerdict(key string, val any) {
	if s.warm == nil {
		return
	}
	b, ok := encodeVerdict(key, val)
	if !ok {
		return
	}
	if err := s.warm.Append(key, b); err != nil {
		s.cfg.Logf("capserved: %v", err)
	}
}
