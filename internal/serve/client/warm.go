package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"repro/internal/serve/wire"
)

// Warm-tier and cluster-membership helpers. The members table mirrors
// internal/serve/cluster but is declared locally: the client package
// stays a thin protocol speaker with no dependency on the server
// implementations.

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

// Member is one coordinator cluster member as reported by the admin
// surface.
type Member struct {
	Backend  string `json:"backend"`
	State    string `json:"state"`
	Routable bool   `json:"routable"`
	Breaker  string `json:"breaker"`
}

// MembersReply is the coordinator's members table.
type MembersReply struct {
	Epoch    int64    `json:"epoch"`
	Members  []Member `json:"members"`
	Routable int      `json:"routable"`
}

// Members fetches the coordinator's live membership table.
func (c *Client) Members(ctx context.Context) (MembersReply, error) {
	var resp MembersReply
	err := c.Do(ctx, http.MethodGet, "/v1/cluster/members", nil, &resp)
	return resp, err
}

// AddMember joins a backend to the coordinator's ring (a new epoch).
func (c *Client) AddMember(ctx context.Context, backend string) (MembersReply, error) {
	req := struct {
		Backend string `json:"backend"`
	}{Backend: backend}
	var resp MembersReply
	err := c.Do(ctx, http.MethodPost, "/v1/cluster/members", req, &resp)
	return resp, err
}

// RemoveMember removes a backend from the coordinator's ring.
func (c *Client) RemoveMember(ctx context.Context, backend string) (MembersReply, error) {
	var resp MembersReply
	err := c.Do(ctx, http.MethodDelete, "/v1/cluster/members?backend="+url.QueryEscape(backend), nil, &resp)
	return resp, err
}
