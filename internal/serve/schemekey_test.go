package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	coordattack "repro"
	"repro/internal/scheme"
)

// schemeKeyGolden pins the cache key of every registry scheme. Warm
// stores on disk are keyed by these strings, so a change here silently
// invalidates every stored verdict.
var schemeKeyGolden = map[string]string{
	"AlmostFair": "f8407c0b2927da993fc3acb7abbf5444",
	"BX1":        "d69043158d76a17905925402b0a6ec93",
	"BX2":        "7eb15685cd97d4248fe3d737be25e7ec",
	"C1":         "79506fc014344f65719dc6befbb009e8",
	"Fair":       "2d6f8397658452d340a2ffbf30c759da",
	"FairSigma":  "728ca4490cfef1415ba9b93b513f171a",
	"K1":         "502272d5863ecd84692f1580b403bdd9",
	"K2":         "36a227cc53c3ec290281b1586c836296",
	"K3":         "7688323f6856b5a3eb4189584abe47eb",
	"R1":         "2d4ae6b68dfc515663c8bc04b4703e6a",
	"S0":         "a151a5b126cc11103a2b4f2cc562c3bf",
	"S1":         "7bd1064599427acfa174565bbc3720ca",
	"S2":         "3a5569df2c18d5362851b08482828343",
	"TB":         "0b17932240f71340a76183f188ee367b",
	"TW":         "b5fa7b6d4b6261943bb1c9b033eb47b0",
}

// randomSchemeKeysGolden is the SHA-256 of the concatenated keys of the
// 100 scheme.Random automata drawn in TestCanonicalSchemeKeyGolden.
const randomSchemeKeysGolden = "b5f5184c82191e6e46dc321292f4f8d28874eba16c2daa9bc8e6fad1da4a78c6"

func TestCanonicalSchemeKeyGolden(t *testing.T) {
	names := scheme.Names()
	if len(names) != len(schemeKeyGolden) {
		t.Fatalf("registry has %d schemes, golden %d", len(names), len(schemeKeyGolden))
	}
	for _, name := range names {
		s, err := scheme.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := CanonicalSchemeKey(s); got != schemeKeyGolden[name] {
			t.Errorf("CanonicalSchemeKey(%s) = %s, golden %s", name, got, schemeKeyGolden[name])
		}
		if again := CanonicalSchemeKey(s); again != schemeKeyGolden[name] {
			t.Errorf("memoized CanonicalSchemeKey(%s) = %s", name, again)
		}
	}
	rng := rand.New(rand.NewSource(1))
	h := sha256.New()
	for i := 0; i < 100; i++ {
		h.Write([]byte(CanonicalSchemeKey(scheme.Random(rng, 1+rng.Intn(10)))))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != randomSchemeKeysGolden {
		t.Errorf("random scheme keys hash to %s, golden %s", got, randomSchemeKeysGolden)
	}
}

// TestVerdictKeysMatchSprintf pins the concatenated key builders to the
// fmt.Sprintf form stored verdicts were named by, over a grid of
// horizons, budgets, rounds and both minRounds values.
func TestVerdictKeysMatchSprintf(t *testing.T) {
	sch, err := scheme.ByName("S1")
	if err != nil {
		t.Fatal(err)
	}
	g := coordattack.Petersen()
	for _, n := range []int{-1, 0, 1, 2, 7, 12, 13, 99, 1 << 20} {
		for _, minRounds := range []bool{false, true} {
			want := fmt.Sprintf("solvable|%s|h=%d|min=%v", CanonicalSchemeKey(sch), n, minRounds)
			if got := SolvableKey(sch, n, minRounds); got != want {
				t.Errorf("SolvableKey(h=%d, min=%v) = %q, want %q", n, minRounds, got, want)
			}
		}
		for _, r := range []int{0, 1, 3, 12, 1000} {
			want := fmt.Sprintf("netsolve|%s|f=%d|r=%d", CanonicalGraphKey(g), n, r)
			if got := NetSolvableKey(g, n, r); got != want {
				t.Errorf("NetSolvableKey(f=%d, r=%d) = %q, want %q", n, r, got, want)
			}
		}
	}
}
