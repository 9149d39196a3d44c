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
// the LRU verdicts of the newcomer's ring neighbors and imports the
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

// handleWarmExport streams up to ?max= verdicts (default 4096) of the
// LRU as a warm segment, most recent first — the entries a newcomer most
// wants. Truncation is flagged in X-Warm-Truncated.
func (s *Server) handleWarmExport(w http.ResponseWriter, r *http.Request) {
	max := 4096
	if q := r.URL.Query().Get("max"); q != "" {
		if n, err := strconv.Atoi(q); err == nil && n > 0 {
			max = n
		}
	}
	seg := wire.AppendSegmentHeader(nil)
	entries, truncated := 0, false
	s.cache.lru.Range(func(key string, val any) bool {
		if entries == max {
			truncated = true
			return false
		}
		if b, ok := encodeVerdict(key, val); ok {
			seg = wire.AppendSegmentRecord(seg, key, b)
			entries++
		}
		return true
	})
	w.Header().Set("Content-Type", wire.MediaTypeWarmSegment)
	if truncated {
		w.Header().Set("X-Warm-Truncated", "1")
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(seg)
}

// installWarmEntry installs one decodable imported verdict into the LRU
// (so it serves hot immediately) and appends it to the warm store when
// one is attached. Returns false for undecodable entries and for keys
// the LRU already holds.
func (s *Server) installWarmEntry(key string, raw []byte) bool {
	if _, dup := s.cache.lru.Get(key); dup {
		return false
	}
	v, ok := decodeVerdict(key, raw)
	if !ok {
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
