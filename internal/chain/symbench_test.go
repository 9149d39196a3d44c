package chain

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"repro/internal/fullinfo"
	"repro/internal/scheme"
)

// bench6MaxR is the horizon BENCH_6 drives the symbolic backend to;
// override with BENCH6_MAXR. 40 is past every enumeration budget —
// 4·3^40 ≈ 4.9e19 configurations, beyond int64 — yet the interval walk
// finishes the whole MinRounds sweep in microseconds per horizon.
func bench6MaxR() int {
	if v := os.Getenv("BENCH6_MAXR"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 1 {
			return n
		}
	}
	return 40
}

// bench6FlatMaxR is the horizon BENCH_6's enumerating side sweeps to;
// override with BENCH6_FLAT_MAXR. 13 is about the deepest R1 horizon
// enumeration affords inside one benchmark iteration.
func bench6FlatMaxR() int {
	if v := os.Getenv("BENCH6_FLAT_MAXR"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 1 {
			return n
		}
	}
	return 13
}

// bench6PrintOnce keeps the configs-exact line to a single clean write
// before the harness starts interleaving benchmark name prefixes with
// benchmark-body output.
var bench6PrintOnce sync.Once

// BenchmarkMinRoundsSymbolicVsFlat is the BENCH_6 pair: the R1
// MinRounds/VerdictOnly search on the symbolic index-interval backend
// at bench6MaxR (default 40), against the flat-table enumerating
// engine at bench6FlatMaxR (default 13 — the deepest it can afford).
// The comparison is deliberately asymmetric: the symbolic side sweeps
// three times the horizon, which enumeration cannot reach at any
// budget, and must still win on wall clock. It also prints the exact
// configuration count at the top horizon (bench6_configs_exact), which
// exceeds int64.
func BenchmarkMinRoundsSymbolicVsFlat(b *testing.B) {
	s, err := scheme.ByName("R1")
	if err != nil {
		b.Fatal(err)
	}
	maxR := bench6MaxR()
	bench6PrintOnce.Do(func() {
		rep, err := Analyze(context.Background(), Request{
			Scheme: s, Horizon: maxR,
			Engine: &fullinfo.Options{Backend: fullinfo.BackendSymbolic},
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.ConfigsExact != nil {
			fmt.Printf("bench6_configs_exact %s\n", rep.ConfigsExact)
		} else {
			fmt.Printf("bench6_configs_exact %d\n", rep.Configs)
		}
	})
	b.Run("symbolic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rep, err := Analyze(context.Background(), Request{
				Scheme: s, Horizon: maxR, MinRounds: true, VerdictOnly: true,
				Engine: &fullinfo.Options{Backend: fullinfo.BackendSymbolic},
			})
			if err != nil {
				b.Fatal(err)
			}
			if rep.Found {
				b.Fatal("R1 must be unsolvable")
			}
			if rep.Stats.SymbolicFallbacks != 0 {
				b.Fatal("R1 must stay symbolic for the whole sweep")
			}
		}
		b.ReportMetric(float64(maxR), "max_horizon")
	})
	b.Run("flat", func(b *testing.B) {
		b.ReportAllocs()
		flatR := bench6FlatMaxR()
		for i := 0; i < b.N; i++ {
			rep, err := Analyze(context.Background(), Request{
				Scheme: s, Horizon: flatR, MinRounds: true, VerdictOnly: true,
				Engine: &fullinfo.Options{Backend: fullinfo.BackendEnumerate},
			})
			if err != nil {
				b.Fatal(err)
			}
			if rep.Found {
				b.Fatal("R1 must be unsolvable")
			}
		}
		b.ReportMetric(float64(flatR), "max_horizon")
	})
}
