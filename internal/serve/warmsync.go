package serve

import (
	"net/http"
	"strconv"

	"repro/internal/serve/wire"
)

// handleWarmExport streams up to ?max= verdicts (default 4096) of the
// LRU as a wire warm segment (application/x-capwarm-segment), most
// recent first; truncation is flagged in X-Warm-Truncated. The segment
// is the verdict store's on-disk format, so an operator, or a benchmark
// replaying a node's verdicts, can append the body straight into a
// store that another node boots from.
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
		if b, ok := encodeVerdict(key, val.(*verdictEntry).val); ok {
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
