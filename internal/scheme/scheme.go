// Package scheme represents omission schemes — the sets of infinite loss
// scenarios of Definition II.2 — as ω-regular languages backed by
// deterministic Büchi automata, and provides every named scheme from the
// paper plus combinators to build new ones.
//
// The paper observes that "all communication schemes we are aware of are
// regular"; this package is the executable form of that observation. A
// Scheme over Γ (no double omission) can be fed to the classify package,
// which decides Theorem III.8. Schemes over the full alphabet Σ are also
// representable (e.g. S2 = Σ^ω) for the monotonicity arguments.
package scheme

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/buchi"
	"repro/internal/omission"
)

// Scheme is an ω-regular omission scheme: a named language of infinite
// loss scenarios. The automaton alphabet is indexed by omission.Letter
// values: symbol 0 = None, 1 = LossWhite, 2 = LossBlack, 3 = LossBoth.
// Schemes over Γ use alphabet size 3; schemes over Σ use 4.
type Scheme struct {
	name string
	desc string
	auto *buchi.DBA

	// pdfa caches the compiled prefix DFA (see PrefixDFA) and digest the
	// automaton digest (see Digest); automata are immutable once wrapped,
	// so each is computed at most once.
	pdfaOnce   sync.Once
	pdfa       *PrefixDFA
	digestOnce sync.Once
	digest     string
}

// New wraps a deterministic Büchi automaton as a scheme. The automaton
// alphabet must be 3 (Γ) or 4 (Σ).
func New(name, desc string, auto *buchi.DBA) (*Scheme, error) {
	if auto == nil {
		return nil, fmt.Errorf("scheme: nil automaton")
	}
	if err := auto.Validate(); err != nil {
		return nil, err
	}
	if auto.Alphabet != len(omission.Gamma) && auto.Alphabet != len(omission.Sigma) {
		return nil, fmt.Errorf("scheme: alphabet size %d, want 3 (Γ) or 4 (Σ)", auto.Alphabet)
	}
	return &Scheme{name: name, desc: desc, auto: auto}, nil
}

// MustNew is New that panics on error.
func MustNew(name, desc string, auto *buchi.DBA) *Scheme {
	s, err := New(name, desc, auto)
	if err != nil {
		panic(err)
	}
	return s
}

// Name returns the scheme's short name.
func (s *Scheme) Name() string { return s.name }

// Description returns the scheme's one-line description.
func (s *Scheme) Description() string { return s.desc }

// String implements fmt.Stringer.
func (s *Scheme) String() string { return s.name }

// Automaton returns the underlying DBA (shared; treat as read-only).
func (s *Scheme) Automaton() *buchi.DBA { return s.auto }

// OverGamma reports whether the scheme is expressed over Γ (alphabet 3).
// Note a Σ-scheme may still happen to contain only Γ-words.
func (s *Scheme) OverGamma() bool { return s.auto.Alphabet == len(omission.Gamma) }

// Symbols converts a word to automaton symbols; it reports an error if a
// letter is outside the scheme's alphabet.
func (s *Scheme) Symbols(w omission.Word) ([]buchi.Symbol, error) {
	out := make([]buchi.Symbol, len(w))
	for i, l := range w {
		if int(l) >= s.auto.Alphabet {
			return nil, fmt.Errorf("scheme %s: letter %v outside alphabet", s.name, l)
		}
		out[i] = buchi.Symbol(l)
	}
	return out, nil
}

// Letters converts automaton symbols back to a word.
func Letters(sym []buchi.Symbol) omission.Word {
	w := make(omission.Word, len(sym))
	for i, a := range sym {
		w[i] = omission.Letter(a)
	}
	return w
}

// Contains reports whether the ultimately periodic scenario belongs to the
// scheme. Scenarios using letters outside the scheme's alphabet are not
// members.
func (s *Scheme) Contains(sc omission.Scenario) bool {
	u, err := s.Symbols(sc.Prefix())
	if err != nil {
		return false
	}
	v, err := s.Symbols(sc.Period())
	if err != nil {
		return false
	}
	return s.auto.AcceptsUP(u, v)
}

// AcceptsPrefix reports whether some scenario of the scheme begins with w,
// i.e. w ∈ Pref(L) (Definition II.4), by walking the cached prefix DFA.
func (s *Scheme) AcceptsPrefix(w omission.Word) bool {
	d := s.PrefixDFA()
	q := d.Start()
	for _, l := range w {
		if q < 0 {
			return false
		}
		q = d.StepLetter(q, l)
	}
	return q >= 0
}

// Digest is the canonical identity of the scheme's compiled automaton: the
// hex form of the first 16 bytes of a SHA-256 over its alphabet, start,
// state count, transition table and accepting set. Two schemes with
// identical automata — however they were spelled — share a digest. It is
// computed once per scheme.
func (s *Scheme) Digest() string {
	s.digestOnce.Do(func() {
		a := s.auto
		h := sha256.New()
		var buf [8]byte
		put := func(x int) {
			binary.LittleEndian.PutUint64(buf[:], uint64(int64(x)))
			h.Write(buf[:])
		}
		put(a.Alphabet)
		put(a.Start)
		put(len(a.Delta))
		for _, row := range a.Delta {
			for _, q := range row {
				put(q)
			}
		}
		for _, acc := range a.Accepting {
			if acc {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		}
		s.digest = hex.EncodeToString(h.Sum(nil)[:16])
	})
	return s.digest
}

// PrefixOracle supports incremental Pref(L) queries: extend a partial
// scenario letter by letter, checking at each step whether it remains
// extendable to a member of L.
type PrefixOracle struct {
	s *Scheme
	o *buchi.PrefixOracle
}

// NewPrefixOracle returns an oracle positioned at ε.
func (s *Scheme) NewPrefixOracle() *PrefixOracle {
	return &PrefixOracle{s: s, o: s.auto.NBA().NewPrefixOracle()}
}

// Step appends a letter and reports whether the prefix is still in Pref(L).
func (p *PrefixOracle) Step(l omission.Letter) bool {
	if int(l) >= p.s.auto.Alphabet {
		return false
	}
	return p.o.Step(buchi.Symbol(l))
}

// CanStep reports whether appending l would keep the prefix in Pref(L).
func (p *PrefixOracle) CanStep(l omission.Letter) bool {
	if int(l) >= p.s.auto.Alphabet {
		return false
	}
	return p.o.CanStep(buchi.Symbol(l))
}

// Live reports whether the current prefix is in Pref(L).
func (p *PrefixOracle) Live() bool { return p.o.Live() }

// Clone returns an independent copy.
func (p *PrefixOracle) Clone() *PrefixOracle { return &PrefixOracle{s: p.s, o: p.o.Clone()} }

// SamplePrefix draws a random element of Pref(L) ∩ Σ^n, or ok=false when
// the scheme is empty.
func (s *Scheme) SamplePrefix(rng *rand.Rand, n int) (omission.Word, bool) {
	sym, ok := s.auto.NBA().SamplePrefix(rng, n)
	if !ok {
		return nil, false
	}
	return Letters(sym), true
}

// IsEmpty reports whether the scheme contains no scenario at all; when
// non-empty a member scenario is returned.
func (s *Scheme) IsEmpty() (bool, omission.Scenario) {
	empty, w := s.auto.NBA().IsEmpty()
	if empty {
		return true, omission.Scenario{}
	}
	return false, omission.UPWord(Letters(w.Stem), Letters(w.Loop))
}

// sameAlphabet panics unless the two schemes share an alphabet size.
func sameAlphabet(a, b *Scheme) {
	if a.auto.Alphabet != b.auto.Alphabet {
		panic(fmt.Sprintf("scheme: %s is over alphabet %d but %s is over %d; widen first",
			a.name, a.auto.Alphabet, b.name, b.auto.Alphabet))
	}
}

// Intersect returns the scheme L(a) ∩ L(b).
func Intersect(name string, a, b *Scheme) *Scheme {
	sameAlphabet(a, b)
	return MustNew(name, fmt.Sprintf("(%s ∩ %s)", a.name, b.name), a.auto.Intersect(b.auto))
}

// Union returns the scheme L(a) ∪ L(b).
func Union(name string, a, b *Scheme) *Scheme {
	sameAlphabet(a, b)
	return MustNew(name, fmt.Sprintf("(%s ∪ %s)", a.name, b.name), a.auto.Union(b.auto))
}

// Minus returns L(s) with the given ultimately periodic scenarios removed.
// Each removal is a product with a small "everything but one word" DBA;
// condensing dead states between steps keeps chained removals from
// blowing up multiplicatively.
func Minus(name string, s *Scheme, scs ...omission.Scenario) *Scheme {
	auto := s.auto
	for _, sc := range scs {
		u, err := s.Symbols(sc.Prefix())
		if err != nil {
			panic(err)
		}
		v, err := s.Symbols(sc.Period())
		if err != nil {
			panic(err)
		}
		auto = auto.Intersect(buchi.NotWordDBA(auto.Alphabet, u, v)).Condense()
	}
	desc := fmt.Sprintf("%s minus %d scenario(s)", s.name, len(scs))
	return MustNew(name, desc, auto)
}

// Widen re-expresses a Γ-scheme over the full alphabet Σ (adding a
// rejecting sink for the double omission). It is the identity on
// Σ-schemes.
func Widen(s *Scheme) *Scheme {
	if !s.OverGamma() {
		return s
	}
	old := s.auto
	n := old.NumStates()
	sink := n
	d := &buchi.DBA{
		Alphabet:  len(omission.Sigma),
		Start:     old.Start,
		Delta:     make([][]buchi.State, n+1),
		Accepting: make([]bool, n+1),
	}
	for q := 0; q < n; q++ {
		row := make([]buchi.State, 4)
		for a := 0; a < 3; a++ {
			row[a] = old.Delta[q][a]
		}
		row[int(omission.LossBoth)] = sink
		d.Delta[q] = row
		d.Accepting[q] = old.Accepting[q]
	}
	d.Delta[sink] = []buchi.State{sink, sink, sink, sink}
	return MustNew(s.name, s.desc, d)
}

// Equivalent reports whether two schemes denote the same ω-language, by
// checking both difference languages for emptiness. A distinguishing
// scenario is returned when they differ. Schemes over different alphabets
// are compared after widening.
func Equivalent(a, b *Scheme) (bool, omission.Scenario) {
	a, b = Widen(a), Widen(b)
	// a \ b nonempty?
	diff := a.auto.NBA().Intersect(b.auto.Complement())
	if empty, w := diff.IsEmpty(); !empty {
		return false, omission.UPWord(Letters(w.Stem), Letters(w.Loop))
	}
	diff = b.auto.NBA().Intersect(a.auto.Complement())
	if empty, w := diff.IsEmpty(); !empty {
		return false, omission.UPWord(Letters(w.Stem), Letters(w.Loop))
	}
	return true, omission.Scenario{}
}

// SubsetOf reports whether L(a) ⊆ L(b); when not, a scenario in a\b is
// returned.
func SubsetOf(a, b *Scheme) (bool, omission.Scenario) {
	a, b = Widen(a), Widen(b)
	diff := a.auto.NBA().Intersect(b.auto.Complement())
	if empty, w := diff.IsEmpty(); !empty {
		return false, omission.UPWord(Letters(w.Stem), Letters(w.Loop))
	}
	return true, omission.Scenario{}
}

// Random returns a pseudo-random scheme over Γ with the given number of
// automaton states, for fuzz-testing the classifier. The automaton is
// trimmed; the language may be empty.
func Random(rng *rand.Rand, states int) *Scheme {
	if states < 1 {
		states = 1
	}
	d := &buchi.DBA{
		Alphabet:  len(omission.Gamma),
		Start:     0,
		Delta:     make([][]buchi.State, states),
		Accepting: make([]bool, states),
	}
	for q := 0; q < states; q++ {
		row := make([]buchi.State, 3)
		for a := 0; a < 3; a++ {
			row[a] = rng.Intn(states)
		}
		d.Delta[q] = row
		d.Accepting[q] = rng.Intn(2) == 0
	}
	return MustNew(fmt.Sprintf("random-%d", rng.Int63()), "random DBA scheme over Γ", d.Trim())
}
