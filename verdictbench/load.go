package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/serve/wire"
)

// loader sends calls to one server over at most conns connections.
type loader struct {
	hc  *http.Client
	url string
	tr  *tracer // nil when untraced
	// samples keeps a few decoded wire verdicts for the wire-layer replay.
	samples *verdictSamples
}

func newLoader(url string, conns int, tr *tracer) *loader {
	return &loader{
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
		url:     url,
		tr:      tr,
		samples: &verdictSamples{max: 256},
	}
}

func (d *loader) close() { d.hc.CloseIdleConnections() }

// record is the outcome of one call.
type record struct {
	c       *call
	due     time.Time     // when the call was scheduled (open loop) or sent
	latency time.Duration // from due to the last body byte
	lag     time.Duration // open loop: how late a sender picked the call up
	bytes   int           // response body bytes
	tier    string        // coordinator cache tier of the reply (X-Cluster-Cache)
	err     error         // the whole call failed
	// verdicts has one entry per item when err is nil.
	verdicts []verdict
}

// do sends c and decodes its reply. Latency runs from due (the call's
// scheduled time in an open loop, its send time in a closed one) to
// the last byte of the body; decoding is not timed.
func (d *loader) do(ctx context.Context, c *call, due time.Time, buf *bytes.Buffer) record {
	rec := record{c: c, due: due}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.url+c.path, bytes.NewReader(c.body))
	if err != nil {
		rec.err = err
		return rec
	}
	req.Header.Set("Content-Type", "application/json")
	if c.binary {
		if c.batch {
			req.Header.Set("Accept", wire.AcceptVerdictStream)
		} else {
			req.Header.Set("Accept", wire.AcceptVerdict)
		}
	}
	var hs *httpSpan
	if d.tr != nil {
		req, hs = d.tr.startHTTP(req, c.path)
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		rec.latency, rec.err = time.Since(due), err
		return rec
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	rec.latency = time.Since(due)
	if hs != nil {
		hs.end()
	}
	rec.bytes, rec.tier = buf.Len(), resp.Header.Get("X-Cluster-Cache")
	switch {
	case err != nil:
		rec.err = err
	case resp.StatusCode != http.StatusOK:
		rec.err = fmt.Errorf("HTTP %d: %.200s", resp.StatusCode, buf.Bytes())
	default:
		rec.verdicts, rec.err = d.decode(c, buf.Bytes())
	}
	return rec
}

// decode turns a 200 body into one verdict per item.
func (d *loader) decode(c *call, body []byte) ([]verdict, error) {
	if c.batch {
		return d.decodeBatch(c, body)
	}
	q := c.items[0]
	switch q.kind {
	case qClassify:
		var cr classifyReply
		if err := json.Unmarshal(body, &cr); err != nil {
			return nil, err
		}
		return []verdict{fromClassify(&cr)}, nil
	case qNet:
		var v wire.NetSolvable
		if err := unmarshalVerdict(body, &v); err != nil {
			return nil, err
		}
		d.samples.add(&v)
		return []verdict{fromNet(&v)}, nil
	}
	var v wire.Solvable
	if err := unmarshalVerdict(body, &v); err != nil {
		return nil, err
	}
	d.samples.add(&v)
	return []verdict{fromSolvable(&v)}, nil
}

// unmarshalVerdict decodes a frame or, failing the magic, JSON.
func unmarshalVerdict(body []byte, dst any) error {
	if wire.IsFrame(body) {
		return wire.UnmarshalInto(body, dst)
	}
	return json.Unmarshal(body, dst)
}

var errMissingLine = errors.New("batch line missing")

// decodeBatch reads a JSON-lines or frame stream of batch lines.
func (d *loader) decodeBatch(c *call, body []byte) ([]verdict, error) {
	out := make([]verdict, len(c.items))
	put := func(index, status int, s *wire.Solvable) error {
		if index < 0 || index >= len(out) || out[index].status != 0 {
			return fmt.Errorf("batch line index %d out of range or repeated", index)
		}
		out[index].status = status
		if status == http.StatusOK {
			if s == nil {
				return fmt.Errorf("batch line %d: 200 without a verdict", index)
			}
			out[index] = fromSolvable(s)
		}
		return nil
	}
	if wire.IsFrame(body) {
		sc := wire.NewFrameScanner(bytes.NewReader(body), 0)
		for {
			kind, payload, err := sc.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return nil, err
			}
			if kind != wire.KindBatchLine {
				return nil, fmt.Errorf("unexpected frame kind %s in a batch stream", kind)
			}
			line, err := wire.DecodeBatchLine(payload)
			if err != nil {
				return nil, err
			}
			s, _ := line.Verdict.(*wire.Solvable)
			if err := put(line.Index, line.Status, s); err != nil {
				return nil, err
			}
		}
	} else {
		for _, ln := range bytes.Split(bytes.TrimSpace(body), []byte{'\n'}) {
			var line struct {
				Index   int             `json:"index"`
				Status  int             `json:"status"`
				Verdict json.RawMessage `json:"verdict"`
			}
			if err := json.Unmarshal(ln, &line); err != nil {
				return nil, err
			}
			var s *wire.Solvable
			if line.Status == http.StatusOK {
				s = new(wire.Solvable)
				if err := json.Unmarshal(line.Verdict, s); err != nil {
					return nil, err
				}
			}
			if err := put(line.Index, line.Status, s); err != nil {
				return nil, err
			}
		}
	}
	for i := range out {
		if out[i].status == 0 {
			return nil, fmt.Errorf("item %d: %w", i, errMissingLine)
		}
	}
	return out, nil
}

// verdictSamples keeps the first max decoded single verdicts.
type verdictSamples struct {
	mu   sync.Mutex
	max  int
	vals []any
}

func (s *verdictSamples) add(v any) {
	s.mu.Lock()
	if len(s.vals) < s.max {
		s.vals = append(s.vals, v)
	}
	s.mu.Unlock()
}

// stream hands out a workload's calls in generation order to any
// number of senders; the sequence depends on the seed alone.
type stream struct {
	mu   sync.Mutex
	next func() *call
}

func (s *stream) take() *call {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next()
}

// sink receives each record on the goroutine of the sender that made
// it; sender indexes run from 0 to the loop's sender count.
type sink func(sender int, r record)

// closedLoop runs `workers` senders that each send their next call as
// soon as the previous reply is read, starting none after dur, and
// returns the wall time until the last reply.
func closedLoop(ctx context.Context, d *loader, s *stream, workers int, dur time.Duration, out sink) time.Duration {
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf bytes.Buffer
			for ctx.Err() == nil && time.Now().Before(deadline) {
				c := s.take()
				out(w, d.do(ctx, c, time.Now(), &buf))
			}
		}(w)
	}
	wg.Wait()
	return time.Since(start)
}

// openLoopSenders bounds the goroutines that carry open-loop calls;
// connections stay capped by the loader's transport, so excess calls
// wait for a connection with their latency clock running.
const openLoopSenders = 64

// openLoop schedules call i at start + i/rate for dur, whatever the
// replies do. Latency is timed from each call's due time, so a stall
// is charged to every call that came due during it; lag records how
// late a sender picked each call up.
func openLoop(ctx context.Context, d *loader, s *stream, rate float64, dur time.Duration, out sink) time.Duration {
	type job struct {
		c   *call
		due time.Time
	}
	jobs := make(chan job)
	start := time.Now()
	end := start.Add(dur)
	go func() {
		defer close(jobs)
		for i := 0; ; i++ {
			due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
			if !due.Before(end) || ctx.Err() != nil {
				return
			}
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			select {
			case jobs <- job{s.take(), due}:
			case <-ctx.Done():
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < openLoopSenders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf bytes.Buffer
			for j := range jobs {
				lag := time.Since(j.due)
				r := d.do(ctx, j.c, j.due, &buf)
				r.lag = lag
				out(w, r)
			}
		}(w)
	}
	wg.Wait()
	return time.Since(start)
}
