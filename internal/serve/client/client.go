// Package client is a small retrying HTTP client for capserved. It
// speaks the service's protocol — binary verdict frames when the server
// offers them, JSON otherwise — and absorbs its load-shedding
// semantics: 429/503 responses (and transport errors) are retried with
// capped exponential backoff plus decorrelated jitter, honoring the
// server's Retry-After header when present, all bounded by the caller's
// context.
//
// Binary negotiation is transparent: verdict requests carry an Accept
// header preferring application/x-capverdict while still listing JSON,
// and the reply's frame-magic sniff decides the decode path. Callers see
// identical decoded structs either way. Warm exports arrive as wire warm
// segments, the format every capserved process uses for cached verdicts.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/serve/wire"
)

// Options tunes the retry policy. The zero value gives sane defaults.
type Options struct {
	// MaxAttempts bounds total tries per call (default 5).
	MaxAttempts int
	// BaseBackoff is the first retry delay (default 100ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (default 5s).
	MaxBackoff time.Duration
	// HTTPClient is the transport (default http.DefaultClient).
	HTTPClient *http.Client
	// Rand seeds the jitter (default: a time-seeded source). Injectable
	// for deterministic tests.
	Rand *rand.Rand
	// Sleep is the wait primitive (default: context-aware sleep).
	// Injectable so tests can record delays instead of waiting.
	Sleep func(ctx context.Context, d time.Duration) error
	// MaxBodyBytes caps how many bytes of one response body the client
	// will buffer (default 1 MiB). A longer reply fails with
	// *TruncatedError instead of being silently clipped into a JSON parse
	// error.
	MaxBodyBytes int64
}

func (o *Options) defaults() {
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 5
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 100 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 5 * time.Second
	}
	if o.HTTPClient == nil {
		o.HTTPClient = http.DefaultClient
	}
	if o.Rand == nil {
		o.Rand = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	if o.Sleep == nil {
		o.Sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
}

// Client talks to one capserved base URL.
type Client struct {
	base string
	opt  Options
}

// New builds a client for a base URL such as "http://127.0.0.1:8321".
func New(base string, opt Options) *Client {
	opt.defaults()
	return &Client{base: base, opt: opt}
}

// APIError is a non-retryable (or retries-exhausted) HTTP error reply.
type APIError struct {
	Status int
	Body   string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("capserved: HTTP %d: %s", e.Status, e.Body)
}

// TruncatedError reports a response larger than Options.MaxBodyBytes. It is not retried: the same query would
// produce the same oversized reply, so the caller must raise the cap.
type TruncatedError struct {
	Limit int64
}

func (e *TruncatedError) Error() string {
	return fmt.Sprintf("capserved: response truncated at %d bytes; raise Options.MaxBodyBytes", e.Limit)
}

// bodyPool recycles response read buffers: the retry loop and the warm
// sync paths pull whole bodies often enough that per-call ReadAll
// growth was a measurable allocation source.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// bodyPoolMax is the largest buffer returned to the pool; one giant
// warm-export reply must not pin its footprint forever.
const bodyPoolMax = 4 << 20

func getBody() *bytes.Buffer {
	b := bodyPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

// ReleaseBuffer returns a ReadBounded buffer to the pool.
func ReleaseBuffer(b *bytes.Buffer) {
	if b.Cap() <= bodyPoolMax {
		bodyPool.Put(b)
	}
}

// ReadBounded drains r into a pooled buffer, failing with
// *TruncatedError past limit: the package's pooled replacement for
// io.ReadAll, for its own replies and for the cluster coordinator's
// shard replies. The caller must ReleaseBuffer the result once its
// Bytes() are no longer referenced, and must copy bytes that outlive
// the release.
func ReadBounded(r io.Reader, limit int64) (*bytes.Buffer, error) {
	buf := getBody()
	// Read one byte past the limit: exactly-limit bodies are legal, and
	// the extra byte distinguishes "fits" from "clipped".
	if _, err := buf.ReadFrom(io.LimitReader(r, limit+1)); err != nil {
		ReleaseBuffer(buf)
		return nil, err
	}
	if int64(buf.Len()) > limit {
		ReleaseBuffer(buf)
		return nil, &TruncatedError{Limit: limit}
	}
	return buf, nil
}

// retryable reports whether a status is worth retrying: the server's
// load-shedding and fast-fail replies, bad gateways in front of it, and
// plain 500s — every analysis query is idempotent, and a 500 from one
// attempt (an injected fault, a panic isolated to one request) says
// nothing about the next.
func retryable(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable,
		http.StatusBadGateway, http.StatusInternalServerError:
		return true
	}
	return false
}

// backoff computes the wait before attempt i (0-based retry count):
// exponential growth from BaseBackoff, capped at MaxBackoff, with full
// jitter — a uniformly random fraction of the window, so herds of
// clients desynchronize. A server Retry-After overrides the computed
// wait when it is longer.
func (c *Client) backoff(retry int, retryAfter time.Duration) time.Duration {
	// Double up to the cap instead of shifting by retry outright: a large
	// retry count would overflow the shift negative and panic Int63n.
	window := c.opt.BaseBackoff
	for i := 0; i < retry && window < c.opt.MaxBackoff; i++ {
		window <<= 1
	}
	if window <= 0 || window > c.opt.MaxBackoff {
		window = c.opt.MaxBackoff
	}
	d := time.Duration(c.opt.Rand.Int63n(int64(window) + 1))
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// parseRetryAfter reads a Retry-After response header (seconds form).
func parseRetryAfter(resp *http.Response) time.Duration {
	if resp == nil {
		return 0
	}
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return 0
}

// Do POSTs reqBody as JSON to path (or GETs when reqBody is nil) and
// decodes the JSON reply into respBody (skipped when nil). It retries
// retryable failures with capped backoff under ctx.
func (c *Client) Do(ctx context.Context, method, path string, reqBody, respBody any) error {
	var payload []byte
	if reqBody != nil {
		var err error
		if payload, err = json.Marshal(reqBody); err != nil {
			return fmt.Errorf("capserved: encoding request: %w", err)
		}
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
		lastErr = c.once(ctx, method, path, payload, respBody)
		if lastErr == nil {
			return nil
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

// retryableError wraps a failure the retry loop may try again.
type retryableError struct {
	err        error
	api        *APIError
	retryAfter time.Duration
}

func (r *retryableError) Error() string {
	if r.api != nil {
		return r.api.Error()
	}
	return r.err.Error()
}

// acceptFor names the Accept header for a decode target: the verdict
// frame types for verdict pointers, the warm segment for warm exports,
// and nothing (JSON) for everything else (stats maps, health bodies).
func acceptFor(respBody any) string {
	switch respBody.(type) {
	case *wire.Solvable, *wire.NetSolvable, *wire.Chaos:
		return wire.AcceptVerdict
	case *warmExport:
		return wire.MediaTypeWarmSegment
	}
	return ""
}

func (c *Client) once(ctx context.Context, method, path string, payload []byte, respBody any) error {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if accept := acceptFor(respBody); accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := c.opt.HTTPClient.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return &retryableError{err: err}
	}
	defer resp.Body.Close()
	buf, err := ReadBounded(resp.Body, c.opt.MaxBodyBytes)
	if err != nil {
		var trunc *TruncatedError
		if errors.As(err, &trunc) {
			return err // deterministic: retrying re-fetches the same oversized body
		}
		return &retryableError{err: err}
	}
	defer ReleaseBuffer(buf)
	raw := buf.Bytes()
	if resp.StatusCode >= 400 {
		apiErr := &APIError{Status: resp.StatusCode, Body: string(bytes.TrimSpace(raw))}
		if retryable(resp.StatusCode) {
			return &retryableError{api: apiErr, retryAfter: parseRetryAfter(resp)}
		}
		return apiErr
	}
	if respBody != nil {
		if we, ok := respBody.(*warmExport); ok {
			return we.decode(raw, resp.Header)
		}
		if wire.IsFrame(raw) {
			if err := wire.UnmarshalInto(raw, respBody); err != nil {
				return fmt.Errorf("capserved: decoding frame: %w", err)
			}
			return nil
		}
		// JSON body — either we never asked for binary, or the server
		// chose JSON from the Accept list. Both are fine.
		if err := json.Unmarshal(raw, respBody); err != nil {
			return fmt.Errorf("capserved: decoding response: %w", err)
		}
	}
	return nil
}

// Healthz polls GET /healthz once.
func (c *Client) Healthz(ctx context.Context) error {
	return c.Do(ctx, http.MethodGet, "/healthz", nil, nil)
}
