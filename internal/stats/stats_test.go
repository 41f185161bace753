package stats_test

import (
	"math/rand"
	"testing"

	"repro/internal/bgp"
	"repro/internal/dict"
	"repro/internal/naive"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/testkit"
)

func collect(e *testkit.Example) (*storage.Store, *stats.Stats) {
	st := e.RawStore()
	return st, stats.Collect(st, e.Vocab)
}

func TestPropertyStats(t *testing.T) {
	e := testkit.Paper()
	_, s := collect(e)
	writtenBy := e.ID("writtenBy")
	ps := s.Property(writtenBy)
	if ps.Count != 1 || ps.DistinctS != 1 || ps.DistinctO != 1 {
		t.Errorf("writtenBy stats = %+v", ps)
	}
	if s.Property(dict.ID(9999)).Count != 0 {
		t.Error("unknown property should have zero stats")
	}
	if s.Total() < len(e.Data) {
		t.Errorf("Total = %d, want >= %d", s.Total(), len(e.Data))
	}
}

func TestPatternCountExact(t *testing.T) {
	rngSeed := int64(3)
	e := testkit.Random(rngSeed, 80)
	st, s := collect(e)
	// Exhaustive check against direct store counts over random patterns.
	rng := rand.New(rand.NewSource(99))
	triples := st.Triples()
	for i := 0; i < 50; i++ {
		tr := triples[rng.Intn(len(triples))]
		pats := []storage.Pattern{
			{},
			{P: tr.P},
			{S: tr.S},
			{S: tr.S, P: tr.P},
			{P: tr.P, O: tr.O},
			{S: tr.S, P: tr.P, O: tr.O},
		}
		for _, p := range pats {
			if got, want := s.PatternCount(p), st.Count(p); got != want {
				t.Fatalf("PatternCount(%+v) = %d, want %d", p, got, want)
			}
			// Memoized second call must agree.
			if got2 := s.PatternCount(p); got2 != st.Count(p) {
				t.Fatalf("memoized PatternCount changed: %d", got2)
			}
		}
	}
}

// AtomCard with all-constant or single-variable atoms is exact.
func TestAtomCardExactCases(t *testing.T) {
	e := testkit.Paper()
	st, s := collect(e)
	writtenBy := e.ID("writtenBy")
	atom := bgp.Atom{S: bgp.V(0), P: bgp.C(writtenBy), O: bgp.V(1)}
	if got := s.AtomCard(atom); got != float64(st.Count(storage.Pattern{P: writtenBy})) {
		t.Errorf("AtomCard = %v", got)
	}
	all := bgp.Atom{S: bgp.V(0), P: bgp.V(1), O: bgp.V(2)}
	if got := s.AtomCard(all); got != float64(st.Len()) {
		t.Errorf("AtomCard(???) = %v, want %d", got, st.Len())
	}
}

// The CQ cardinality estimate must be within a reasonable factor of the
// true result size on single-join queries over random data — it is an
// estimate, so only order-of-magnitude sanity is asserted.
func TestCQCardSanity(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		e := testkit.Random(seed, 120)
		st, s := collect(e)
		rng := rand.New(rand.NewSource(seed + 42))
		for i := 0; i < 5; i++ {
			q := testkit.RandomQuery(e, rng)
			truth := float64(len(naive.EvalCQ(st, q)))
			est := s.CQCard(q)
			if est < 0 {
				t.Fatalf("negative estimate for %s", q)
			}
			// Estimates must not be absurd: within 100x when the truth
			// is nonzero (the projection-free estimate can exceed the
			// deduplicated answer count).
			if truth > 0 && (est > truth*100+100) {
				t.Errorf("seed %d: estimate %v vs truth %v for %s", seed, est, truth, q)
			}
		}
	}
}

func TestCQScanTuples(t *testing.T) {
	e := testkit.Paper()
	_, s := collect(e)
	q := bgp.CQ{Atoms: []bgp.Atom{
		{S: bgp.V(0), P: bgp.C(e.ID("writtenBy")), O: bgp.V(1)},
		{S: bgp.V(0), P: bgp.C(e.ID("hasTitle")), O: bgp.V(2)},
	}}
	want := s.AtomCard(q.Atoms[0]) + s.AtomCard(q.Atoms[1])
	if got := s.CQScanTuples(q); got != want {
		t.Errorf("CQScanTuples = %v, want %v", got, want)
	}
}

// JoinOfUnionsCard with singleton slots must equal CQCard.
func TestJoinOfUnionsConsistentWithCQCard(t *testing.T) {
	e := testkit.Random(5, 100)
	_, s := collect(e)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 10; i++ {
		q := testkit.RandomQuery(e, rng)
		slots := make([][]bgp.Atom, len(q.Atoms))
		for j, a := range q.Atoms {
			slots[j] = []bgp.Atom{a}
		}
		if got, want := s.JoinOfUnionsCard(slots), s.CQCard(q); got != want {
			t.Errorf("JoinOfUnionsCard = %v, CQCard = %v for %s", got, want, q)
		}
	}
}

// A union slot's cardinality must dominate each member's.
func TestJoinOfUnionsMonotone(t *testing.T) {
	e := testkit.Paper()
	_, s := collect(e)
	a1 := bgp.Atom{S: bgp.V(0), P: bgp.C(e.ID("writtenBy")), O: bgp.V(1)}
	a2 := bgp.Atom{S: bgp.V(0), P: bgp.C(e.ID("hasTitle")), O: bgp.V(1)}
	single := s.JoinOfUnionsCard([][]bgp.Atom{{a1}})
	union := s.JoinOfUnionsCard([][]bgp.Atom{{a1, a2}})
	if union < single {
		t.Errorf("union slot card %v < member card %v", union, single)
	}
}

// A slot summary is one pass over the slot's alternatives: Σ AtomCard,
// and per variable Σ DistinctForVar over the alternatives that carry it,
// with variables in first-seen order and an atom's repeated variable
// counted once.
func TestSummarizeSlot(t *testing.T) {
	e := testkit.Random(5, 100)
	_, s := collect(e)
	p, q := e.ID("p0"), e.ID("p1")
	alts := []bgp.Atom{
		{S: bgp.V(3), P: bgp.C(p), O: bgp.V(1)},
		{S: bgp.V(1), P: bgp.C(q), O: bgp.V(1)},
		{S: bgp.V(3), P: bgp.V(2), O: bgp.V(4)},
	}
	sum := s.SummarizeSlot(alts)
	var card float64
	for _, a := range alts {
		card += s.AtomCard(a)
	}
	if sum.Card != card {
		t.Errorf("Card = %v, want Σ AtomCard = %v", sum.Card, card)
	}
	want := []stats.VarDistinct{
		{Var: 3, Distinct: s.DistinctForVar(alts[0], 3) + s.DistinctForVar(alts[2], 3)},
		{Var: 1, Distinct: s.DistinctForVar(alts[0], 1) + s.DistinctForVar(alts[1], 1)},
		{Var: 2, Distinct: s.DistinctForVar(alts[2], 2)},
		{Var: 4, Distinct: s.DistinctForVar(alts[2], 4)},
	}
	if len(sum.Vars) != len(want) {
		t.Fatalf("Vars = %+v, want %+v", sum.Vars, want)
	}
	for i := range want {
		if sum.Vars[i] != want[i] {
			t.Errorf("Vars[%d] = %+v, want %+v", i, sum.Vars[i], want[i])
		}
	}
}

// JoinCard multiplies slot cardinalities and divides by the larger
// distinct count of each shared variable, after clamping a slot's summed
// distinct count to its cardinality.
func TestJoinCard(t *testing.T) {
	sums := []stats.SlotSummary{
		{Card: 10, Vars: []stats.VarDistinct{{Var: 0, Distinct: 2}, {Var: 1, Distinct: 10}}},
		// Var 0 sums to 6 distinct values over 5 tuples: clamped to 5.
		{Card: 5, Vars: []stats.VarDistinct{{Var: 0, Distinct: 6}}},
	}
	if got, want := stats.JoinCard(sums), 10.0*5/5; got != want {
		t.Errorf("JoinCard = %v, want %v", got, want)
	}
	if got := stats.JoinCard(nil); got != 0 {
		t.Errorf("JoinCard of no slots = %v, want 0", got)
	}
	empty := append(sums, stats.SlotSummary{Card: 0})
	if got := stats.JoinCard(empty); got != 0 {
		t.Errorf("JoinCard with an empty slot = %v, want 0", got)
	}
}

// Bind divides by the larger distinct count of a rebound variable, keeps
// the smaller one, and never divides by a count below 1.
func TestBind(t *testing.T) {
	bound, m := stats.Bind(nil, stats.VarDistinct{Var: 7, Distinct: 4})
	if m != 1 || len(bound) != 1 {
		t.Fatalf("first binding: divisor %v, bound %+v", m, bound)
	}
	bound, m = stats.Bind(bound, stats.VarDistinct{Var: 7, Distinct: 9})
	if m != 9 || bound[0].Distinct != 4 {
		t.Errorf("rebinding: divisor %v, bound %+v; want 9 and distinct 4", m, bound)
	}
	bound, m = stats.Bind([]stats.VarDistinct{{Var: 7, Distinct: 0}}, stats.VarDistinct{Var: 7, Distinct: 0.5})
	if m != 1 || bound[0].Distinct != 0 {
		t.Errorf("sub-unit counts: divisor %v, bound %+v; want 1 and distinct 0", m, bound)
	}
}

func TestDistinctForVar(t *testing.T) {
	e := testkit.Paper()
	_, s := collect(e)
	writtenBy := e.ID("writtenBy")
	atom := bgp.Atom{S: bgp.V(0), P: bgp.C(writtenBy), O: bgp.V(1)}
	if d := s.DistinctForVar(atom, 0); d != 1 {
		t.Errorf("distinct subjects of writtenBy = %v, want 1", d)
	}
	if d := s.DistinctForVar(atom, 1); d != 1 {
		t.Errorf("distinct objects of writtenBy = %v, want 1", d)
	}
}

func TestEachProperty(t *testing.T) {
	e := testkit.Paper()
	_, s := collect(e)
	n := 0
	s.EachProperty(func(dict.ID, stats.PropStat) bool { n++; return true })
	if n == 0 {
		t.Error("EachProperty visited nothing")
	}
	first := 0
	s.EachProperty(func(dict.ID, stats.PropStat) bool { first++; return false })
	if first != 1 {
		t.Error("EachProperty ignored early stop")
	}
}
