package main

import (
	"fmt"
	"time"
)

// recentCalls is how many of its latest calls a tally keeps for the
// per-layer replays.
const recentCalls = 512

// pendingItem is a reply item whose query the oracle has not answered
// yet; it is judged after the window.
type pendingItem struct {
	q query
	v verdict
}

// tally accumulates one sender's outcomes without keeping every record:
// latencies, counts, verdicts checked on the spot against the oracle's
// precomputed answers, and the replies to new questions for later.
type tally struct {
	calls, items, bad int
	hotItems          int // items that repeat a warmed key (no scenario removed)
	bytes             int64
	singles, batches  []time.Duration
	lags              []time.Duration
	// hit and miss split single-call latency by whether the serving
	// tier answered from its cache.
	hit, miss []time.Duration
	examples  []error
	pending   []pendingItem
	recent    []*call // ring of the latest calls
	next      int     // ring position
	// seconds splits the window into one-second slices by completion
	// time, from t0; the gated metrics are medians over the slices, so
	// a burst of noise from outside the process moves few of them.
	t0      time.Time
	seconds []slice
}

// slice is one second of a window.
type slice struct {
	items            int
	singles, batches []time.Duration
}

// slice returns the second r completed in, growing the table.
func (t *tally) slice(r record) *slice {
	i := max(0, int(r.due.Add(r.latency).Sub(t.t0)/time.Second))
	for len(t.seconds) <= i {
		t.seconds = append(t.seconds, slice{})
	}
	return &t.seconds[i]
}

func (t *tally) fail(n int, err error) {
	t.bad += n
	if len(t.examples) < 5 {
		t.examples = append(t.examples, err)
	}
}

// add folds one record in; known holds the oracle's answers computed
// before the window.
func (t *tally) add(r record, known oracle) {
	c := r.c
	t.calls++
	t.items += len(c.items)
	t.bytes += int64(r.bytes)
	t.lags = append(t.lags, r.lag)
	sl := t.slice(r)
	sl.items += len(c.items)
	if c.batch {
		t.batches = append(t.batches, r.latency)
		sl.batches = append(sl.batches, r.latency)
	} else {
		t.singles = append(t.singles, r.latency)
		sl.singles = append(sl.singles, r.latency)
	}
	for _, q := range c.items {
		if q.minus == "" {
			t.hotItems++
		}
	}
	if len(t.recent) < recentCalls {
		t.recent = append(t.recent, c)
	} else {
		t.recent[t.next] = c
		t.next = (t.next + 1) % recentCalls
	}
	if r.err != nil {
		t.fail(len(c.items), fmt.Errorf("%s: %w", c.path, r.err))
		return
	}
	if !c.batch {
		cached := r.verdicts[0].cached
		if r.tier != "" {
			cached = r.tier != "miss" // the coordinator's tier, not the shard's
		}
		if cached {
			t.hit = append(t.hit, r.latency)
		} else {
			t.miss = append(t.miss, r.latency)
		}
	}
	for i, q := range c.items {
		if want, ok := known[q.key()]; ok {
			if err := check(q, want, r.verdicts[i]); err != nil {
				t.fail(1, err)
			}
			continue
		}
		t.pending = append(t.pending, pendingItem{q, r.verdicts[i]})
	}
}

// merge folds the per-sender tallies into one.
func merge(ts []tally) *tally {
	out := &tally{}
	for i := range ts {
		t := &ts[i]
		for j, sl := range t.seconds {
			for len(out.seconds) <= j {
				out.seconds = append(out.seconds, slice{})
			}
			o := &out.seconds[j]
			o.items += sl.items
			o.singles = append(o.singles, sl.singles...)
			o.batches = append(o.batches, sl.batches...)
		}
		out.calls += t.calls
		out.items += t.items
		out.bad += t.bad
		out.hotItems += t.hotItems
		out.bytes += t.bytes
		out.singles = append(out.singles, t.singles...)
		out.batches = append(out.batches, t.batches...)
		out.lags = append(out.lags, t.lags...)
		out.hit = append(out.hit, t.hit...)
		out.miss = append(out.miss, t.miss...)
		out.pending = append(out.pending, t.pending...)
		out.recent = append(out.recent, t.recent...)
		for _, e := range t.examples {
			if len(out.examples) < 5 {
				out.examples = append(out.examples, e)
			}
		}
	}
	return out
}

// judgePending checks the replies to questions first asked in the
// window against answers the oracle computes now, outside it.
func (t *tally) judgePending(o oracle, undecided map[string]error) {
	for _, p := range t.pending {
		k := p.q.key()
		if err, ok := undecided[k]; ok {
			t.fail(1, fmt.Errorf("oracle %s: %w", k, err))
			continue
		}
		if err := check(p.q, o[k], p.v); err != nil {
			t.fail(1, err)
		}
	}
	t.pending = nil
}

// queries lists the distinct questions of the recent calls.
func (t *tally) queries() []query {
	var qs []query
	seen := map[string]bool{}
	for _, c := range t.recent {
		for _, q := range c.items {
			if k := q.key(); !seen[k] {
				seen[k] = true
				qs = append(qs, q)
			}
		}
	}
	return qs
}

// perSecond returns the median over the window's whole seconds of f
// applied to each second, skipping seconds where f is negative (no
// sample); 0 when none is left.
func (t *tally) perSecond(f func(slice) float64) float64 {
	var xs []float64
	for _, s := range t.seconds {
		if v := f(s); v >= 0 {
			xs = append(xs, v)
		}
	}
	return median(xs)
}
