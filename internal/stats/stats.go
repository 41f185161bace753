// Package stats collects the data statistics the cost model of the paper's
// Section 4.1 relies on, and derives cardinality estimates for triple
// patterns and conjunctive queries.
//
// Per-pattern counts (|q_{t}| in the paper's notation) are *exact*: the
// storage layer answers any bound-prefix pattern count with two binary
// searches, so looking the number up is cheaper than maintaining an
// approximate histogram would be. Join-result cardinalities are estimated
// with the classic value-set-containment assumption, using per-property
// distinct-subject and distinct-object counts gathered in a single pass at
// load time.
package stats

import (
	"sync"

	"repro/internal/bgp"
	"repro/internal/dict"
	"repro/internal/schema"
	"repro/internal/storage"
)

// PropStat holds the per-property statistics gathered at collection time.
type PropStat struct {
	Count     int // triples with this property
	DistinctS int // distinct subjects among them
	DistinctO int // distinct objects among them
}

// Stats provides cardinality information for one store.
//
//lint:cache statsmemo
type Stats struct {
	store *storage.Store
	vocab schema.Vocab
	total int
	props map[dict.ID]PropStat

	mu          sync.Mutex
	memo        map[storage.Pattern]int
	memoVersion uint64 // store.Version() the memo contents were computed at
}

// Collect scans the store once and returns its statistics. vocab supplies
// the rdf:type ID used to recognize class-membership patterns.
func Collect(store *storage.Store, vocab schema.Vocab) *Stats {
	st := &Stats{
		store: store,
		vocab: vocab,
		total: store.Len(),
		props: make(map[dict.ID]PropStat),
		memo:  make(map[storage.Pattern]int),
	}
	// One map-based pass over the store; the number of distinct properties
	// in RDF datasets is small, so per-property sets stay cheap.
	byProp := make(map[dict.ID]*PropStat)
	subjSets := make(map[dict.ID]map[dict.ID]struct{})
	objSets := make(map[dict.ID]map[dict.ID]struct{})
	store.Each(func(t storage.Triple) bool {
		ps := byProp[t.P]
		if ps == nil {
			ps = &PropStat{}
			byProp[t.P] = ps
			subjSets[t.P] = make(map[dict.ID]struct{})
			objSets[t.P] = make(map[dict.ID]struct{})
		}
		ps.Count++
		subjSets[t.P][t.S] = struct{}{}
		objSets[t.P][t.O] = struct{}{}
		return true
	})
	for p, ps := range byProp {
		ps.DistinctS = len(subjSets[p])
		ps.DistinctO = len(objSets[p])
		st.props[p] = *ps
	}
	// Read the version after the pass: Each() above may have compacted
	// the store (bumping it), and the memo starts empty either way.
	//lint:ignore lockguard construction: st is not shared until Collect returns
	st.memoVersion = store.Version()
	return st
}

// Total returns the number of triples in the store at collection time.
func (st *Stats) Total() int { return st.total }

// Property returns the per-property statistics (zero value if unseen).
//
//lint:ignore versionstamp props is a collection-time estimate frozen at Collect; only the exact-count pattern memo is version-validated
func (st *Stats) Property(p dict.ID) PropStat { return st.props[p] }

// EachProperty calls f for every property with its statistics, in
// unspecified order, stopping early if f returns false.
func (st *Stats) EachProperty(f func(dict.ID, PropStat) bool) {
	for p, ps := range st.props {
		if !f(p, ps) {
			return
		}
	}
}

// maxPatternMemo bounds the pattern-count memo. Stats live for the whole
// process (one instance per store), while the distinct patterns a
// long-running workload asks about are unbounded — every fresh constant
// in a query coins a fresh pattern — so an uncapped memo is a slow leak.
// When the cap is hit the memo is reset wholesale: counts are cheap to
// recompute (two binary searches in storage), so a dumb reset beats the
// bookkeeping of an eviction policy here.
const maxPatternMemo = 1 << 16

// CountSource is the read surface the statistics need from the storage
// layer: exact pattern counts stamped with a mutation version. Both the
// live *storage.Store and a pinned *storage.Snapshot satisfy it, so the
// engine can price plans against the same immutable view it evaluates —
// a probe through a snapshot takes no lock and cannot deadlock inside a
// scan callback.
type CountSource interface {
	Count(storage.Pattern) int
	Version() uint64
}

// PatternCount returns the exact number of triples matching the pattern
// in the live store, memoized. See PatternCountOn.
func (st *Stats) PatternCount(p storage.Pattern) int {
	return st.PatternCountOn(st.store, p)
}

// PatternCountOn returns the exact number of triples matching the
// pattern in src (the live store or a pinned snapshot), memoized. Safe
// for concurrent use. The memo is bounded by maxPatternMemo and reset
// on overflow, so arbitrarily many distinct patterns cannot grow it
// without limit.
//
// The memo is stamped with the source's mutation version: a count is
// served from the memo only when the memo stamp equals src.Version(),
// and a version change discards every cached count, so the cost model
// never prices covers against statistics from a different store state.
// A count is cached only if src.Version() is unchanged on both sides of
// the Count call — always true for a snapshot, and for the live store
// it means a concurrent mutation mid-count conservatively leaves the
// memo alone.
func (st *Stats) PatternCountOn(src CountSource, p storage.Pattern) int {
	v := src.Version()
	st.mu.Lock()
	if st.memoVersion != v {
		st.memo = make(map[storage.Pattern]int, 1024)
		st.memoVersion = v
	}
	n, ok := st.memo[p]
	st.mu.Unlock()
	if ok {
		return n
	}
	n = src.Count(p)
	st.mu.Lock()
	if st.memoVersion == v && src.Version() == v {
		if len(st.memo) >= maxPatternMemo {
			st.memo = make(map[storage.Pattern]int, 1024)
		}
		st.memo[p] = n
	}
	st.mu.Unlock()
	return n
}

// AtomCard returns the (estimated) number of triples matching the atom
// in the live store. See AtomCardOn.
func (st *Stats) AtomCard(a bgp.Atom) float64 {
	return st.AtomCardOn(st.store, a)
}

// AtomCardOn returns the (estimated) number of triples matching the atom
// in src (the live store or a pinned snapshot). Constant positions are
// looked up exactly; an atom with the same variable in two positions gets
// the matching-pair count discounted by the corresponding distinct count.
func (st *Stats) AtomCardOn(src CountSource, a bgp.Atom) float64 {
	return st.discountRepeats(a, float64(st.PatternCountOn(src, atomPattern(a))))
}

// atomPattern is the storage pattern of the atom's constant positions.
func atomPattern(a bgp.Atom) storage.Pattern {
	pat := storage.Pattern{}
	if !a.S.Var {
		pat.S = a.S.Const()
	}
	if !a.P.Var {
		pat.P = a.P.Const()
	}
	if !a.O.Var {
		pat.O = a.O.Const()
	}
	return pat
}

// discountRepeats turns raw, the exact count of the atom's constant
// pattern, into the atom's cardinality. Repeated-variable discount:
// positions forced equal keep roughly a 1/distinct fraction of the
// unconstrained matches. Every extra occurrence of one variable adds an
// equality, whichever pair of positions repeats (S=O, S=P, P=O — or all
// three at once). Three positions hold at most one repeated variable, so
// a scan for the first position that recurs later finds it.
func (st *Stats) discountRepeats(a bgp.Atom, raw float64) float64 {
	card := raw
	pos := a.Positions()
	for i, t := range pos[:2] {
		if !t.Var {
			continue
		}
		n := 1
		for _, u := range pos[i+1:] {
			if u.Var && u.ID == t.ID {
				n++
			}
		}
		if n < 2 {
			continue
		}
		if d := st.distinctGiven(a, t.ID, raw); d > 1 {
			for ; n > 1; n-- {
				card /= d
			}
		}
		break
	}
	return card
}

// DistinctForVar estimates the number of distinct values variable v takes
// in matches of atom a; planners use it to discount bound variables.
func (st *Stats) DistinctForVar(a bgp.Atom, v uint32) float64 {
	return st.DistinctForVarOn(st.store, a, v)
}

// DistinctForVarOn is DistinctForVar reading pattern counts through src.
func (st *Stats) DistinctForVarOn(src CountSource, a bgp.Atom, v uint32) float64 {
	return st.distinctGiven(a, v, float64(st.PatternCountOn(src, atomPattern(a))))
}

// distinctGiven estimates the number of distinct values variable v takes
// in matches of atom a, given card, the exact count of a's constant
// pattern.
func (st *Stats) distinctGiven(a bgp.Atom, v uint32, card float64) float64 {
	// Property-position variable: few distinct properties overall.
	if a.P.Var && a.P.ID == v {
		if n := len(st.props); n > 0 {
			return minf(float64(n), card)
		}
		return maxf(card, 1)
	}
	if !a.P.Var {
		p := a.P.Const()
		//lint:ignore versionstamp props is a collection-time estimate frozen at Collect; distinct-value heuristics tolerate staleness, exact counts go through the version-checked memo
		ps := st.props[p]
		if a.S.Var && a.S.ID == v {
			if !a.O.Var {
				// (?, p, o): subjects are distinct per (s,p,o) triple.
				return maxf(card, 1)
			}
			return clampDistinct(float64(ps.DistinctS), card)
		}
		if a.O.Var && a.O.ID == v {
			if !a.S.Var {
				return maxf(card, 1)
			}
			return clampDistinct(float64(ps.DistinctO), card)
		}
	}
	// Variable property with a subject/object variable: fall back to the
	// atom cardinality (each row may carry a fresh value).
	return maxf(card, 1)
}

func clampDistinct(d, card float64) float64 {
	if d < 1 {
		d = 1
	}
	return minf(d, maxf(card, 1))
}

// CQCard estimates the result cardinality of a conjunctive query using
// per-atom counts and value-set containment for join selectivities: each
// equijoin on a variable v between a new atom and the partial result
// divides the cross-product by the larger distinct-count of v.
func (st *Stats) CQCard(q bgp.CQ) float64 {
	slots := make([][]bgp.Atom, len(q.Atoms))
	for i, a := range q.Atoms {
		slots[i] = []bgp.Atom{a}
	}
	return st.JoinOfUnionsCard(slots)
}

// JoinOfUnionsCard estimates the result cardinality of a join of unions of
// atoms: slot i stands for the relation ∪_{a ∈ slots[i]} matches(a), and
// the slots are joined on the variables they share. This is the shape a
// reformulated cover fragment has (every expansion alternative of an atom
// keeps the atom's original variables), and it also prices a whole UCQ
// reformulation without materializing its (possibly hundreds of thousands
// of) member CQs: Σ_CQ |CQ| ≈ |join of the slot unions|.
func (st *Stats) JoinOfUnionsCard(slots [][]bgp.Atom) float64 {
	sums := make([]SlotSummary, len(slots))
	for i, alts := range slots {
		sums[i] = st.SummarizeSlot(alts)
	}
	return JoinCard(sums)
}

// SlotSummary is the one-pass statistics of one union of atoms (a slot
// of a join of unions): Σ|alt| over its alternatives, and for every
// variable the sum over the alternatives of its distinct-value estimate.
type SlotSummary struct {
	Card float64
	// Vars lists the slot's variables in first-seen order (alternative
	// order, then position order), so every quantity derived from a
	// summary is a pure function of the slot — never of map iteration.
	Vars []VarDistinct
}

// VarDistinct is one variable's summed distinct-value estimate.
type VarDistinct struct {
	Var      uint32
	Distinct float64
}

// SummarizeSlot computes the summary of the union of alts in the live
// store, reading each alternative's pattern count once.
func (st *Stats) SummarizeSlot(alts []bgp.Atom) SlotSummary {
	s := SlotSummary{Vars: make([]VarDistinct, 0, 3)}
	for _, a := range alts {
		raw := float64(st.PatternCount(atomPattern(a)))
		s.Card += st.discountRepeats(a, raw)
		pos := a.Positions()
		for i, t := range pos {
			if !t.Var || repeatsBefore(pos, i) {
				continue
			}
			d := st.distinctGiven(a, t.ID, raw)
			if j := indexVar(s.Vars, t.ID); j >= 0 {
				s.Vars[j].Distinct += d
			} else {
				s.Vars = append(s.Vars, VarDistinct{t.ID, d})
			}
		}
	}
	return s
}

// repeatsBefore reports whether the variable at pos[i] already occurs
// in pos[:i].
func repeatsBefore(pos [3]bgp.Term, i int) bool {
	for _, t := range pos[:i] {
		if t.Var && t.ID == pos[i].ID {
			return true
		}
	}
	return false
}

// indexVar returns the index of variable v in vars, or -1.
func indexVar(vars []VarDistinct, v uint32) int {
	for i, vd := range vars {
		if vd.Var == v {
			return i
		}
	}
	return -1
}

// Bind joins a slot variable into bound, the variables bound so far
// with their smallest distinct counts, under value-set containment. It
// returns the updated set and the join's selectivity divisor: the larger
// of the two distinct counts when vd.Var was already bound and that
// count exceeds 1, and 1 otherwise.
func Bind(bound []VarDistinct, vd VarDistinct) ([]VarDistinct, float64) {
	j := indexVar(bound, vd.Var)
	if j < 0 {
		return append(bound, vd), 1
	}
	prev := bound[j].Distinct
	bound[j].Distinct = minf(prev, vd.Distinct)
	if m := maxf(prev, vd.Distinct); m > 1 {
		return bound, m
	}
	return bound, 1
}

// JoinCard estimates the cardinality of the join of the summarized
// slots, in slot order: each slot multiplies the running result by its
// Σ|alt|, and each variable it shares with an earlier slot divides it by
// the larger of the two (clamped) distinct counts — value-set
// containment, as in CQCard.
func JoinCard(sums []SlotSummary) float64 {
	if len(sums) == 0 {
		return 0
	}
	n := 0
	for _, s := range sums {
		n += len(s.Vars)
	}
	seen := make([]VarDistinct, 0, n)
	card := 1.0
	for _, s := range sums {
		card *= s.Card
		for _, vd := range s.Vars {
			vd.Distinct = clampDistinct(vd.Distinct, s.Card)
			var m float64
			seen, m = Bind(seen, vd)
			card /= m
		}
		if card <= 0 {
			return 0
		}
	}
	return card
}

// CQScanTuples returns Σ_{t ∈ q} |q_{t}|: the total number of tuples the
// engine retrieves to evaluate the query's atoms — the quantity the
// paper's scan- and join-cost formulas are linear in.
func (st *Stats) CQScanTuples(q bgp.CQ) float64 {
	var sum float64
	for _, a := range q.Atoms {
		sum += st.AtomCard(a)
	}
	return sum
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
