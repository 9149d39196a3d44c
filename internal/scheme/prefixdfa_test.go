package scheme

import (
	"math/rand"
	"testing"

	"repro/internal/buchi"
	"repro/internal/omission"
)

// TestPrefixDFAMatchesOracle walks random words letter by letter and
// checks that the flat DFA agrees with the incremental PrefixOracle on
// every named scheme and on random DBA schemes: the DFA state is ≥ 0
// exactly when the oracle reports the prefix is still in Pref(L).
func TestPrefixDFAMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var schemes []*Scheme
	for _, n := range Names() {
		s, err := ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		schemes = append(schemes, s)
	}
	for i := 0; i < 20; i++ {
		schemes = append(schemes, Random(rng, 1+rng.Intn(5)))
	}
	for _, s := range schemes {
		d := s.PrefixDFA()
		oracle := s.NewPrefixOracle()
		if (d.Start() >= 0) != oracle.Live() {
			t.Fatalf("%s: DFA start %d vs oracle live %v", s.Name(), d.Start(), oracle.Live())
		}
		for trial := 0; trial < 30; trial++ {
			o := s.NewPrefixOracle()
			state := d.Start()
			for step := 0; step < 12 && state >= 0; step++ {
				l := omission.Sigma[rng.Intn(len(omission.Sigma))]
				can := o.CanStep(l)
				ns := d.StepLetter(state, l)
				if can != (ns >= 0) {
					t.Fatalf("%s after %d steps: CanStep(%v)=%v but DFA step=%d",
						s.Name(), step, l, can, ns)
				}
				if !can {
					break // stay on the live path, like the chain walk does
				}
				o.Step(l)
				state = ns
			}
		}
	}
}

// TestPrefixDFAEmptyScheme: an empty scheme compiles to a DFA with no
// start state.
func TestPrefixDFAEmptyScheme(t *testing.T) {
	empty := Minus("empty", S0(), omission.MustScenario("(.)"))
	if d := empty.PrefixDFA(); d.Start() != -1 {
		t.Fatalf("empty scheme DFA start = %d, want -1", d.Start())
	}
}

// TestPrefixDFACached: the compilation runs once and is shared.
func TestPrefixDFACached(t *testing.T) {
	s := S1()
	if s.PrefixDFA() != s.PrefixDFA() {
		t.Fatal("PrefixDFA not cached")
	}
}

// TestAcceptsPrefixMatchesNBA checks that AcceptsPrefix, which walks the
// cached prefix DFA, agrees with the subset construction over the scheme's
// Büchi automaton on random schemes, random words (including letters
// outside a Γ-scheme's alphabet) and the empty language.
func TestAcceptsPrefixMatchesNBA(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	schemes := []*Scheme{MustNew("empty", "∅", buchi.EmptyDBA(3)), S2()}
	for i := 0; i < 200; i++ {
		schemes = append(schemes, Random(rng, 1+rng.Intn(8)))
	}
	sawEmpty := false
	for _, s := range schemes {
		if s.PrefixDFA().Start() < 0 {
			sawEmpty = true
		}
		for trial := 0; trial < 50; trial++ {
			w := make(omission.Word, rng.Intn(10))
			for i := range w {
				w[i] = omission.Sigma[rng.Intn(len(omission.Sigma))]
				if rng.Intn(4) != 0 && s.OverGamma() {
					w[i] = omission.Gamma[rng.Intn(len(omission.Gamma))]
				}
			}
			want := false
			if sym, err := s.Symbols(w); err == nil {
				want = s.Automaton().NBA().AcceptsPrefix(sym)
			}
			if got := s.AcceptsPrefix(w); got != want {
				t.Fatalf("%s: AcceptsPrefix(%v) = %v, NBA subset construction %v", s.Name(), w, got, want)
			}
		}
	}
	if !sawEmpty {
		t.Fatal("corpus has no empty language")
	}
}
