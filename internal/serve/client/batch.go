package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/serve/wire"
)

// BatchItem is one scenario of a /v1/solve/batch request — the same
// shape as a single /v1/solvable request body.
type BatchItem struct {
	Scheme     string   `json:"scheme,omitempty"`
	Expr       string   `json:"expr,omitempty"`
	Minus      []string `json:"minus,omitempty"`
	Horizon    int      `json:"horizon,omitempty"`
	MinRounds  bool     `json:"minRounds,omitempty"`
	MaxHorizon int      `json:"maxHorizon,omitempty"`
}

// BatchVerdict is one decoded line of the batch response stream.
// Status carries what the single-item endpoint would have answered for
// this index; Verdict is left raw so callers unmarshal it into their
// own response struct only for the items they care about. When the
// stream arrived as binary frames, Decoded holds the typed verdict
// (*wire.Solvable, *wire.NetSolvable, or *wire.Chaos) instead and
// Verdict is nil; Raw() bridges the two.
type BatchVerdict struct {
	Index   int             `json:"index"`
	Status  int             `json:"status"`
	Verdict json.RawMessage `json:"verdict,omitempty"`
	Error   string          `json:"error,omitempty"`
	DiagID  string          `json:"diagId,omitempty"`
	Decoded any             `json:"-"`
}

// Raw returns the verdict body as JSON regardless of which encoding the
// stream used: Verdict verbatim for JSON streams, a re-marshal of
// Decoded for binary ones (nil when the item carried no verdict).
func (v *BatchVerdict) Raw() (json.RawMessage, error) {
	if v.Verdict != nil || v.Decoded == nil {
		return v.Verdict, nil
	}
	return json.Marshal(v.Decoded)
}

// SolveBatch POSTs items to /v1/solve/batch and invokes fn once per
// streamed verdict line, in item order, as each arrives. A whole-batch
// rejection (429 shed, 503 while draining) is retried under the usual
// backoff policy; once the stream has started nothing is retried —
// per-item failures arrive as lines with a non-200 Status, and fn
// returning a non-nil error aborts the stream and is returned as-is.
func (c *Client) SolveBatch(ctx context.Context, items []BatchItem, fn func(BatchVerdict) error) error {
	payload, err := json.Marshal(struct {
		Items []BatchItem `json:"items"`
	}{items})
	if err != nil {
		return fmt.Errorf("capserved: encoding batch: %w", err)
	}
	var lastErr error
	for attempt := 0; attempt < c.opt.MaxAttempts; attempt++ {
		if attempt > 0 {
			var retryAfter time.Duration
			if re, ok := lastErr.(*retryableError); ok {
				retryAfter = re.retryAfter
			}
			if err := c.opt.Sleep(ctx, c.backoff(attempt-1, retryAfter)); err != nil {
				return err
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		var streamed bool
		streamed, lastErr = c.batchOnce(ctx, payload, fn)
		if lastErr == nil {
			return nil
		}
		if streamed {
			return lastErr // mid-stream failure: retrying would replay delivered lines
		}
		if _, ok := lastErr.(*retryableError); !ok {
			return lastErr
		}
	}
	if re, ok := lastErr.(*retryableError); ok && re.api != nil {
		return re.api
	}
	return lastErr
}

// batchOnce performs one batch attempt. streamed reports whether any
// line reached fn, after which the attempt is no longer retryable.
func (c *Client) batchOnce(ctx context.Context, payload []byte, fn func(BatchVerdict) error) (streamed bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/solve/batch", bytes.NewReader(payload))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", wire.AcceptVerdictStream)
	resp, err := c.opt.HTTPClient.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return false, ctx.Err()
		}
		return false, &retryableError{err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		buf, rerr := readBody(resp.Body, c.opt.MaxBodyBytes)
		if rerr != nil {
			var trunc *TruncatedError
			if errors.As(rerr, &trunc) {
				return false, rerr
			}
			return false, &retryableError{err: rerr}
		}
		apiErr := &APIError{Status: resp.StatusCode, Body: string(bytes.TrimSpace(buf.Bytes()))}
		putBody(buf)
		if retryable(resp.StatusCode) {
			return false, &retryableError{api: apiErr, retryAfter: parseRetryAfter(resp)}
		}
		return false, apiErr
	}
	if strings.Contains(resp.Header.Get("Content-Type"), wire.MediaTypeVerdictStream) {
		return c.batchScanFrames(resp.Body, fn)
	}
	sc := bufio.NewScanner(resp.Body)
	// MaxBodyBytes bounds one line here, not the whole stream: each
	// verdict is its own record.
	sc.Buffer(make([]byte, 0, 64<<10), int(c.opt.MaxBodyBytes))
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var v BatchVerdict
		if err := json.Unmarshal(line, &v); err != nil {
			return streamed, fmt.Errorf("capserved: decoding batch line: %w", err)
		}
		streamed = true
		if err := fn(v); err != nil {
			return streamed, err
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return streamed, &TruncatedError{Limit: c.opt.MaxBodyBytes}
		}
		if !streamed {
			return false, &retryableError{err: err}
		}
		return streamed, err
	}
	return streamed, nil
}

// batchScanFrames consumes a binary batch stream: one BatchLine frame
// per item, decoded typed and delivered through the same callback as
// JSON lines.
func (c *Client) batchScanFrames(body io.Reader, fn func(BatchVerdict) error) (streamed bool, err error) {
	fs := wire.NewFrameScanner(body, int(c.opt.MaxBodyBytes))
	for {
		kind, payload, err := fs.Next()
		if err == io.EOF {
			return streamed, nil
		}
		if err != nil {
			if errors.Is(err, wire.ErrFrameTooLarge) {
				return streamed, &TruncatedError{Limit: c.opt.MaxBodyBytes}
			}
			if !streamed {
				return false, &retryableError{err: err}
			}
			return streamed, err
		}
		if kind != wire.KindBatchLine {
			return streamed, fmt.Errorf("capserved: unexpected %s frame in batch stream", kind)
		}
		line, err := wire.DecodeBatchLine(payload)
		if err != nil {
			return streamed, fmt.Errorf("capserved: decoding batch frame: %w", err)
		}
		streamed = true
		v := BatchVerdict{
			Index:   line.Index,
			Status:  line.Status,
			Error:   line.Error,
			DiagID:  line.DiagID,
			Decoded: line.Verdict,
		}
		if err := fn(v); err != nil {
			return streamed, err
		}
	}
}
