package serve

import (
	"io"
	"net/http"
	"strconv"

	"repro/internal/serve/wire"
)

// Warm-tier synchronization surface, consumed by the cluster
// coordinator's membership handoff (internal/serve/cluster): when a
// backend joins or is readmitted to the ring, the coordinator exports
// warm verdicts from the newcomer's ring neighbors and imports the
// slice of them the new epoch assigns to it. Both directions carry a
// wire warm segment (application/x-capwarm-segment) — the verdict
// store's on-disk format — so a coordinator can pipe an export straight
// into its own store or back out to an import without transcoding.

// warmImportBodyLimit bounds an import body.
const warmImportBodyLimit = 64 << 20

// WarmImportResponse is the POST /v1/warm/import body.
type WarmImportResponse struct {
	Imported int `json:"imported"`
	Skipped  int `json:"skipped"`
}

// handleWarmExport streams up to ?max= warm verdicts (default 4096) as
// a warm segment: the LRU hot set first (most recent first — the
// entries a newcomer most wants), then the rest of the warm map. Each
// entry appears once; truncation is flagged in X-Warm-Truncated.
func (s *Server) handleWarmExport(w http.ResponseWriter, r *http.Request) {
	max := 4096
	if q := r.URL.Query().Get("max"); q != "" {
		if n, err := strconv.Atoi(q); err == nil && n > 0 {
			max = n
		}
	}
	seg := wire.AppendSegmentHeader(nil)
	entries := 0
	seen := make(map[string]bool)
	add := func(key string, b []byte) bool {
		if seen[key] {
			return true
		}
		seen[key] = true
		entries++
		seg = wire.AppendSegmentRecord(seg, key, b)
		return entries < max
	}
	full := true
	s.cache.lru.Range(func(key string, val any) bool {
		if b, ok := encodeVerdict(key, val); ok {
			full = add(key, b)
		}
		return full
	})
	if full {
		s.warmMu.RLock()
		for k, v := range s.warmVals {
			if !add(k, v) {
				full = false
				break
			}
		}
		s.warmMu.RUnlock()
	}
	w.Header().Set("Content-Type", wire.MediaTypeWarmSegment)
	if !full {
		w.Header().Set("X-Warm-Truncated", "1")
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(seg)
}

// installWarmEntry installs one decodable imported verdict into the
// warm map, the LRU (so it serves hot immediately), and the persistent
// store when one is attached. Returns false for undecodable or
// duplicate entries.
func (s *Server) installWarmEntry(key string, raw []byte) bool {
	v, ok := decodeVerdict(key, raw)
	if !ok {
		return false
	}
	s.warmMu.Lock()
	_, dup := s.warmVals[key]
	if !dup {
		s.warmVals[key] = raw
	}
	s.warmMu.Unlock()
	if dup {
		return false
	}
	s.cache.lru.Put(key, v)
	if err := s.warm.Append(key, raw); err != nil {
		s.cfg.Logf("capserved: warm import: %v", err)
	}
	return true
}

// handleWarmImport accepts a warm segment and installs the decodable
// verdicts. Undecodable or malformed entries are counted, not fatal — a
// handoff from a newer coordinator must warm what it can.
func (s *Server) handleWarmImport(w http.ResponseWriter, r *http.Request) {
	sr, err := wire.NewSegmentReader(http.MaxBytesReader(w, r.Body, warmImportBodyLimit))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	resp := WarmImportResponse{}
	for {
		k, v, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			// A torn stream still warms what arrived intact.
			resp.Skipped++
			break
		}
		if s.installWarmEntry(k, v) {
			resp.Imported++
		} else {
			resp.Skipped++
		}
	}
	s.warmImported.Add(int64(resp.Imported))
	if resp.Imported > 0 {
		s.cfg.Logf("capserved: warm import: %d verdicts accepted, %d skipped", resp.Imported, resp.Skipped)
	}
	writeJSON(w, http.StatusOK, resp)
}
