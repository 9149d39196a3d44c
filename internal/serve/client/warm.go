package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/serve/wire"
)

// Warm-tier helpers. The client package stays a thin protocol speaker
// with no dependency on the server implementations.

// WarmEntry is one exported warm verdict: canonical cache key plus the
// stored verdict — a wire frame, or a JSON body for classify keys.
type WarmEntry struct {
	K string          `json:"k"`
	V json.RawMessage `json:"v"`
}

// warmExport is the decode target of GET /v1/warm/export: a wire warm
// segment body, truncation flagged in the X-Warm-Truncated header.
type warmExport struct {
	entries   []WarmEntry
	truncated bool
}

func (we *warmExport) decode(body []byte, h http.Header) error {
	sr, err := wire.NewSegmentReader(bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("capserved: decoding warm export: %w", err)
	}
	for {
		k, v, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("capserved: decoding warm export: %w", err)
		}
		we.entries = append(we.entries, WarmEntry{K: k, V: v})
	}
	we.truncated = h.Get("X-Warm-Truncated") != ""
	return nil
}

// WarmExport fetches up to max warm verdicts from the node (max <= 0
// takes the server default). truncated reports that the node had more.
func (c *Client) WarmExport(ctx context.Context, max int) (entries []WarmEntry, truncated bool, err error) {
	path := "/v1/warm/export"
	if max > 0 {
		path = fmt.Sprintf("%s?max=%d", path, max)
	}
	var we warmExport
	if err := c.Do(ctx, http.MethodGet, path, nil, &we); err != nil {
		return nil, false, err
	}
	return we.entries, we.truncated, nil
}
