package cluster

import (
	"context"
	"io"
	"net/http"
	"sync"
	"time"
)

// probeLoop is the active health prober: every ProbeInterval it probes
// every known member (ejected ones included — that is how they come
// back) and feeds the outcomes through the suspect → ejected →
// readmitted lifecycle. It runs for the coordinator's lifetime and
// stops when baseCtx is cancelled by drain.
//
// The prober is deliberately layered ON TOP of the per-shard breakers
// rather than replacing them: breakers react to request traffic within
// milliseconds but only while traffic flows, and an open breaker still
// costs every request a skip-and-failover decision. The prober converts
// sustained failure into a membership fact — the shard leaves the ring,
// so requests stop considering it at all (no hedge budget spent, no
// breaker skips) — and converts recovery back without operator action.
func (c *Coordinator) probeLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.baseCtx.Done():
			return
		case <-t.C:
			c.probeOnce()
		}
	}
}

// probeOnce probes every known member concurrently and applies the
// lifecycle transitions. Probes run without memMu held (a slow probe
// must not block admin joins); outcomes are applied under the lock and
// re-checked against the live table, so a member removed mid-probe is
// simply skipped.
func (c *Coordinator) probeOnce() {
	c.memMu.Lock()
	bases := append([]string(nil), c.memOrder...)
	c.memMu.Unlock()

	type verdict struct {
		base string
		ok   bool
	}
	verdicts := make([]verdict, len(bases))
	var wg sync.WaitGroup
	for i, base := range bases {
		wg.Add(1)
		go func(i int, base string) {
			defer wg.Done()
			verdicts[i] = verdict{base: base, ok: c.probe(base)}
		}(i, base)
	}
	wg.Wait()

	c.memMu.Lock()
	for _, v := range verdicts {
		m, ok := c.members[v.base]
		if !ok {
			continue // removed while the probe was in flight
		}
		c.m.probes.Add(1)
		if v.ok {
			m.probeFails = 0
			switch m.state {
			case memberSuspect:
				m.state = memberActive
				c.cfg.Logf("coordinator: probe: %s recovered (suspect → active)", v.base)
			case memberEjected:
				m.probeOKs++
				if m.probeOKs >= c.cfg.ProbeRecoverThreshold {
					m.state = memberActive
					m.probeOKs = 0
					m.sh.brk.Reset()
					c.m.readmissions.Add(1)
					c.rebuild("readmit " + v.base)
				}
			}
			continue
		}
		c.m.probeFailures.Add(1)
		m.probeOKs = 0
		m.probeFails++
		switch m.state {
		case memberActive:
			m.state = memberSuspect
			c.cfg.Logf("coordinator: probe: %s failed (active → suspect, %d/%d)",
				v.base, m.probeFails, c.cfg.ProbeFailThreshold)
			fallthrough
		case memberSuspect:
			if m.probeFails >= c.cfg.ProbeFailThreshold {
				m.state = memberEjected
				m.ejections++
				c.m.ejections.Add(1)
				c.rebuild("eject " + v.base)
			}
		}
	}
	c.memMu.Unlock()
}

// probe performs one health check: GET /healthz under ProbeTimeout.
// Any 2xx is healthy; transport errors, timeouts, and non-2xx are not.
func (c *Coordinator) probe(base string) bool {
	ctx, cancel := context.WithTimeout(c.baseCtx, c.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
	return resp.StatusCode >= 200 && resp.StatusCode < 300
}
