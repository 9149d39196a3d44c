package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/serve/wire"
)

// VerdictStore is the persistent warm tier of the two-tier verdict
// cache: an append-only wire warm segment mapping canonical cache keys
// to verdicts — frames, or JSON bodies for classify keys. A node loads
// it at boot, so a restart serves previously computed answers instantly
// instead of re-running the engine; the cluster coordinator
// (internal/serve/cluster) reuses the same store for shard replies.
//
// The file is the durability story, not a database: writes are appended
// under a mutex with no fsync, later records win on duplicate keys, and
// a torn tail (crash mid-append) is dropped on load. The store is a
// cache — a file it cannot read costs recomputation, never correctness —
// so a file that is not a segment (a JSON-lines store from an earlier
// release, or anything else) opens as zero entries and is discarded.
// The load path rewrites the file when it was discarded, when it ends
// in a torn tail (appends must not land behind one), or when the dead
// weight (duplicate or torn records) crosses a threshold: the live
// entries go to a temp file in the same directory that is atomically
// renamed over the original, so a crash mid-rewrite leaves either the
// old file or the new one, never a hybrid. Verdicts are deterministic
// facts about automata, so replaying a stale store can only miss
// entries, never serve wrong ones — the consistency caveats are spelled
// out in DESIGN.md.
type VerdictStore struct {
	mu   sync.Mutex
	f    *os.File
	path string
	// seen tracks keys already on disk so re-computations after an LRU
	// eviction don't grow the file without bound.
	seen map[string]struct{}
	// compacted reports how many dead records the load-time compaction
	// dropped (0 when it didn't run); discarded reports that the file
	// was not a segment and was replaced by an empty one.
	compacted int
	discarded bool
}

// warmCompactMinWaste is how many dead records (duplicates, torn tails)
// the load path tolerates before rewriting the file. Small enough that a
// store thrashed by restarts self-heals quickly, large enough that a
// handful of duplicates never triggers a rewrite.
const warmCompactMinWaste = 64

// OpenVerdictStore opens (creating if absent) the store at path and
// returns it together with every well-formed entry currently on disk,
// rewriting the file first when it is not a segment, ends torn, or
// carries dead records past the threshold. A non-segment or torn file
// that cannot be rewritten is refused with an error: appending to it
// would bury every later record.
func OpenVerdictStore(path string) (*VerdictStore, map[string][]byte, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("warm store: %w", err)
	}
	s := &VerdictStore{f: f, path: path, seen: make(map[string]struct{})}
	entries, rawRecords, torn, err := s.load()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	for k := range entries {
		s.seen[k] = struct{}{}
	}
	waste := rawRecords - len(entries)
	if mustRewrite := s.discarded || torn; mustRewrite || waste >= warmCompactMinWaste {
		err := s.compact(entries)
		if err == nil {
			s.compacted = waste
			return s, entries, nil
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
	return s, entries, nil
}

// load reads every well-formed record. A zero-length file is
// initialized as a segment; a file that is not a segment sets
// s.discarded and loads nothing. Returns the live entries, the raw
// record count (for waste accounting; a torn tail counts as one), and
// whether the file ended torn.
func (s *VerdictStore) load() (map[string][]byte, int, bool, error) {
	entries := make(map[string][]byte)
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
		return entries, 0, false, nil
	}
	sr, err := wire.NewSegmentReader(s.f)
	if errors.Is(err, wire.ErrNotSegment) {
		s.discarded = true
		return entries, 0, false, nil
	}
	if err != nil {
		return nil, 0, false, fmt.Errorf("warm store: reading %s: %w", s.path, err)
	}
	for rawRecords := 0; ; rawRecords++ {
		k, v, err := sr.Next()
		if err == io.EOF {
			return entries, rawRecords, false, nil
		}
		if err != nil {
			// Everything after a bad record is unrecoverable: there is
			// no boundary to resync on.
			return entries, rawRecords + 1, true, nil
		}
		entries[k] = v
	}
}

// compact rewrites the store to hold exactly entries via a temp file in
// the same directory and an atomic rename, then swaps the store's
// handle to the fresh file. Keys are written in sorted order so the
// result is deterministic. Caller owns s exclusively (open time).
func (s *VerdictStore) compact(entries map[string][]byte) error {
	dir, base := filepath.Dir(s.path), filepath.Base(s.path)
	tmp, err := os.CreateTemp(dir, base+".compact-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	keys := make([]string, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w := bufio.NewWriter(tmp)
	if _, err := w.Write(wire.AppendSegmentHeader(nil)); err != nil {
		tmp.Close()
		return err
	}
	var rec []byte
	for _, k := range keys {
		rec = wire.AppendSegmentRecord(rec[:0], k, entries[k])
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

// Append persists one verdict. Keys already on disk are skipped — the
// store holds deterministic facts, so the first write is as good as any
// later one.
func (s *VerdictStore) Append(key string, v []byte) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return fmt.Errorf("warm store: closed")
	}
	if _, dup := s.seen[key]; dup {
		return nil
	}
	if _, err := s.f.Write(wire.AppendSegmentRecord(nil, key, v)); err != nil {
		return fmt.Errorf("warm store: appending to %s: %w", s.path, err)
	}
	s.seen[key] = struct{}{}
	return nil
}

// Len reports how many distinct keys the store has persisted.
func (s *VerdictStore) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.seen)
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

// decodeVerdict turns a stored verdict back into the concrete response
// type its cache-key prefix names: a current-version frame of the key's
// kind, or a classify JSON body. The JSON decode is typed (the handlers
// type-assert cached values, e.g. val.(classifyResponse)). Anything else
// — unknown prefixes, frames of another version or kind, entries
// written by a newer binary — is skipped and recomputed on demand.
func decodeVerdict(key string, raw []byte) (any, bool) {
	if kind, ok := wire.KindForKey(key); ok {
		v, err := wire.Unmarshal(raw)
		if err != nil {
			return nil, false
		}
		switch t := v.(type) {
		case *wire.Solvable:
			return *t, kind == wire.KindSolvable
		case *wire.NetSolvable:
			return *t, kind == wire.KindNetSolvable
		}
		return nil, false
	}
	if strings.HasPrefix(key, "classify|") {
		var v classifyResponse
		if json.Unmarshal(raw, &v) == nil {
			return v, true
		}
	}
	return nil, false
}

// encodeVerdict renders a cached verdict in its stored form — a frame
// when the key has a frame kind, JSON (classify) otherwise — for the
// warm store and /v1/warm/export. ok=false marks values that would not
// decode back (foreign LRU entries, unencodable values).
func encodeVerdict(key string, val any) ([]byte, bool) {
	var b []byte
	var err error
	if _, ok := wire.KindForKey(key); ok {
		b, err = wire.Marshal(val)
	} else {
		b, err = json.Marshal(val)
	}
	if err != nil {
		return nil, false
	}
	if _, ok := decodeVerdict(key, b); !ok {
		return nil, false
	}
	return b, true
}

// attachWarmStore wires the warm tier into the result cache: entries
// loaded from disk answer LRU misses (via Server.warmLookup), and fresh
// successes are appended. Store errors degrade to a log line — a broken
// warm store must never take down serving.
func (s *Server) attachWarmStore(path string) {
	store, rawEntries, err := OpenVerdictStore(path)
	if err != nil {
		s.cfg.Logf("capserved: warm store disabled: %v", err)
		return
	}
	s.warmMu.Lock()
	for k, raw := range rawEntries {
		if _, ok := decodeVerdict(k, raw); ok {
			s.warmVals[k] = raw
		}
	}
	loaded := len(s.warmVals)
	s.warmMu.Unlock()
	s.warm = store
	s.warmLoaded = loaded
	if store.Discarded() {
		s.cfg.Logf("capserved: warm store %s is not a warm segment; discarded it", path)
	}
	if n := store.Compacted(); n > 0 {
		s.cfg.Logf("capserved: warm store %s compacted (%d dead records dropped)", path, n)
	}
	s.cfg.Logf("capserved: warm store %s loaded %d verdicts", path, loaded)
}

// warmLookup answers an LRU miss from the in-memory warm map — disk
// entries loaded at boot plus everything persisted or imported since —
// decoding the stored form.
func (s *Server) warmLookup(key string) (any, bool) {
	s.warmMu.RLock()
	raw, ok := s.warmVals[key]
	s.warmMu.RUnlock()
	if !ok {
		return nil, false
	}
	return decodeVerdict(key, raw)
}

// persistVerdict records a fresh singleflight success in the warm tier,
// in its stored form (encodeVerdict). Without an attached store this is
// a no-op: the in-memory map only tracks what disk (or a handoff peer)
// already knows, so a storeless node keeps its old memory profile.
func (s *Server) persistVerdict(key string, val any) {
	if s.warm == nil {
		return
	}
	b, ok := encodeVerdict(key, val)
	if !ok {
		return
	}
	s.warmMu.Lock()
	s.warmVals[key] = b
	s.warmMu.Unlock()
	if err := s.warm.Append(key, b); err != nil {
		s.cfg.Logf("capserved: %v", err)
	}
}
