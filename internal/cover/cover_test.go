package cover

import (
	"math/rand"
	"testing"

	"repro/internal/bgp"
	"repro/internal/dict"
)

// chainQuery builds q(v0) :- (v0 p v1), (v1 p v2), ... — a path of n atoms.
func chainQuery(n int) bgp.CQ {
	q := bgp.CQ{Head: []bgp.Term{bgp.V(0)}}
	for i := 0; i < n; i++ {
		q.Atoms = append(q.Atoms, bgp.Atom{
			S: bgp.V(uint32(i)), P: bgp.C(100), O: bgp.V(uint32(i + 1)),
		})
	}
	return q
}

// starQuery builds q(v0) :- (v0 p1 v1), (v0 p2 v2), ... — all atoms share v0.
func starQuery(n int) bgp.CQ {
	q := bgp.CQ{Head: []bgp.Term{bgp.V(0)}}
	for i := 0; i < n; i++ {
		q.Atoms = append(q.Atoms, bgp.Atom{
			S: bgp.V(0), P: bgp.C(dict.ID(100 + i)), O: bgp.V(uint32(i + 1)),
		})
	}
	return q
}

func TestFragmentBasics(t *testing.T) {
	f := Single(0).With(2)
	if !f.Has(0) || f.Has(1) || !f.Has(2) {
		t.Error("Has wrong")
	}
	if f.Count() != 2 {
		t.Errorf("Count = %d", f.Count())
	}
	if got := f.Atoms(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("Atoms = %v", got)
	}
	if f.String() != "{t1,t3}" {
		t.Errorf("String = %q", f.String())
	}
	if !f.ContainsAll(Single(2)) || f.ContainsAll(Single(1)) {
		t.Error("ContainsAll wrong")
	}
}

func TestCoverCanonical(t *testing.T) {
	a := NewCover(Single(1), Single(0), Single(1))
	b := NewCover(Single(0), Single(1))
	if a.Key() != b.Key() {
		t.Errorf("canonical keys differ: %q vs %q", a.Key(), b.Key())
	}
	if len(a) != 2 {
		t.Errorf("duplicates not removed: %v", a)
	}
}

func TestGraphAdjacency(t *testing.T) {
	q := chainQuery(3) // t1(v0,v1) t2(v1,v2) t3(v2,v3)
	g := mustGraph(q)
	if !g.Adjacent(0, 1) || !g.Adjacent(1, 2) || g.Adjacent(0, 2) {
		t.Error("chain adjacency wrong")
	}
	if !g.Joins(0, Single(1)) || g.Joins(0, Single(2)) {
		t.Error("Joins wrong")
	}
}

func TestFragmentConnected(t *testing.T) {
	g := mustGraph(chainQuery(3))
	if !g.FragmentConnected(Single(0).With(1)) {
		t.Error("{t1,t2} should be connected")
	}
	if g.FragmentConnected(Single(0).With(2)) {
		t.Error("{t1,t3} shares no variable, should be disconnected")
	}
	if !g.FragmentConnected(Single(0).With(1).With(2)) {
		t.Error("{t1,t2,t3} should be connected")
	}
	if g.FragmentConnected(0) {
		t.Error("empty fragment is not connected")
	}
}

func TestValid(t *testing.T) {
	g := mustGraph(chainQuery(3))
	cases := []struct {
		c    Cover
		want bool
	}{
		{NewCover(Single(0).With(1), Single(1).With(2)), true},
		{NewCover(Single(0).With(1).With(2)), true},                     // whole query
		{NewCover(Single(0), Single(1), Single(2)), true},               // per atom
		{NewCover(Single(0), Single(1)), false},                         // misses t3
		{NewCover(Single(0).With(1), Single(0).With(1).With(2)), false}, // inclusion
		{NewCover(Single(0).With(2), Single(1)), false},                 // cartesian fragment
		{Cover{}, false},
	}
	for _, c := range cases {
		if got := g.Valid(c.c); got != c.want {
			t.Errorf("Valid(%v) = %v, want %v", c.c, got, c.want)
		}
	}
}

func TestMinimal(t *testing.T) {
	if !NewCover(Single(0).With(1), Single(1).With(2)).Minimal() {
		t.Error("overlapping cover with private atoms should be minimal")
	}
	if NewCover(Single(0).With(1).With(2), Single(1).With(2)).Minimal() {
		t.Error("fragment fully covered by the other is not minimal")
	}
}

func TestWholeAndPerAtom(t *testing.T) {
	g := mustGraph(chainQuery(4))
	if !g.Valid(WholeQuery(4)) {
		t.Error("whole-query cover should be valid")
	}
	if !g.Valid(PerAtom(4)) {
		t.Error("per-atom cover should be valid on a connected query")
	}
	if len(PerAtom(4)) != 4 || len(WholeQuery(4)) != 1 {
		t.Error("cover shapes wrong")
	}
}

// The paper's Table 2 enumerates all eight covers of a three-atom query
// where every pair of atoms joins: UCQ, SCQ, three two-fragment covers of
// sizes {2,1}, and three of sizes {2,2} — our enumeration must find the
// same eight (the count the upper bound of Section 3 refers to).
func TestEnumerateMinimalTriangle(t *testing.T) {
	g := mustGraph(starQuery(3))
	var covers []Cover
	exhaustive := g.EnumerateMinimal(0, func(c Cover) bool {
		covers = append(covers, c)
		return true
	})
	if !exhaustive {
		t.Error("enumeration should be exhaustive")
	}
	if len(covers) != 8 {
		for _, c := range covers {
			t.Logf("  %v", c)
		}
		t.Fatalf("enumerated %d covers, want 8", len(covers))
	}
	seen := make(map[string]bool)
	for _, c := range covers {
		if seen[c.Key()] {
			t.Errorf("duplicate cover %v", c)
		}
		seen[c.Key()] = true
		if !g.Valid(c) || !c.Minimal() {
			t.Errorf("invalid or non-minimal cover %v", c)
		}
	}
}

func TestEnumerateChain(t *testing.T) {
	g := mustGraph(chainQuery(3))
	count := 0
	g.EnumerateMinimal(0, func(c Cover) bool {
		count++
		if !g.Valid(c) {
			t.Errorf("invalid cover %v", c)
		}
		return true
	})
	// Chain of 3: fragments must be contiguous runs. Covers: {123},
	// {1}{2}{3}, {12}{3}, {1}{23}, {12}{23} = 5.
	if count != 5 {
		t.Errorf("chain of 3 has %d covers, want 5", count)
	}
}

func TestEnumerateLimit(t *testing.T) {
	g := mustGraph(starQuery(5))
	count := 0
	exhaustive := g.EnumerateMinimal(3, func(c Cover) bool {
		count++
		return true
	})
	if exhaustive {
		t.Error("limited enumeration must report non-exhaustive")
	}
	if count > 3 {
		t.Errorf("visited %d covers, limit 3", count)
	}
}

// randomQuery builds a random n-atom query whose atoms draw their
// subject and object variables from a pool of vars variables: a small
// pool gives a dense sharing graph, a large one a sparse, often
// disconnected one.
func randomQuery(rng *rand.Rand, n, vars int) bgp.CQ {
	q := bgp.CQ{Head: []bgp.Term{bgp.V(0)}}
	for i := 0; i < n; i++ {
		q.Atoms = append(q.Atoms, bgp.Atom{
			S: bgp.V(uint32(rng.Intn(vars))), P: bgp.C(dict.ID(100 + i)), O: bgp.V(uint32(rng.Intn(vars))),
		})
	}
	return q
}

// connectedQuery builds a random connected n-atom query: atom i joins a
// random earlier atom.
func connectedQuery(rng *rand.Rand, n int) bgp.CQ {
	q := bgp.CQ{Head: []bgp.Term{bgp.V(0)}}
	for i := 0; i < n; i++ {
		prev := uint32(0)
		if i > 0 {
			prev = uint32(rng.Intn(i*2 + 1))
		}
		q.Atoms = append(q.Atoms, bgp.Atom{
			S: bgp.V(prev), P: bgp.C(dict.ID(100 + i)), O: bgp.V(uint32(i*2 + 2)),
		})
	}
	return q
}

// refGraph is a brute-force reference for the Graph predicates: an
// adjacency matrix and atom-by-atom loops, straight from the
// definitions.
type refGraph struct {
	n   int
	adj [][]bool
}

func newRefGraph(q bgp.CQ) *refGraph {
	n := len(q.Atoms)
	r := &refGraph{n: n, adj: make([][]bool, n)}
	for i := range r.adj {
		r.adj[i] = make([]bool, n)
		for j := range r.adj[i] {
			r.adj[i][j] = i != j && q.Atoms[i].SharesVar(q.Atoms[j])
		}
	}
	return r
}

func (r *refGraph) joins(i int, f Fragment) bool {
	for j := 0; j < r.n; j++ {
		if f.Has(j) && r.adj[i][j] {
			return true
		}
	}
	return false
}

func (r *refGraph) connected(f Fragment) bool {
	var atoms []int
	for i := 0; i < r.n; i++ {
		if f.Has(i) {
			atoms = append(atoms, i)
		}
	}
	if len(atoms) == 0 {
		return false
	}
	seen := map[int]bool{atoms[0]: true}
	stack := []int{atoms[0]}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, j := range atoms {
			if !seen[j] && r.adj[i][j] {
				seen[j] = true
				stack = append(stack, j)
			}
		}
	}
	return len(seen) == len(atoms)
}

func (r *refGraph) fragmentsJoin(a, b Fragment) bool {
	for i := 0; i < r.n; i++ {
		if a.Has(i) && (b.Has(i) || r.joins(i, b)) {
			return true
		}
	}
	return false
}

func (r *refGraph) valid(c Cover) bool {
	if len(c) == 0 {
		return false
	}
	var all Fragment
	for i := 0; i < r.n; i++ {
		all = all.With(i)
	}
	if c.Union() != all {
		return false
	}
	for i, f := range c {
		if !r.connected(f) {
			return false
		}
		for j, h := range c {
			if i != j && h&f == f {
				return false
			}
		}
	}
	if len(c) > 1 {
		for _, f := range c {
			joins := false
			for _, h := range c {
				if h != f && r.fragmentsJoin(f, h) {
					joins = true
				}
			}
			if !joins {
				return false
			}
		}
	}
	return true
}

func refMinimal(c Cover) bool {
	for i, f := range c {
		var others Fragment
		for j, h := range c {
			if i != j {
				others |= h
			}
		}
		if others&f == f {
			return false
		}
	}
	return true
}

// The bitmask predicates must agree with the brute-force reference on
// random queries of every size up to MaxAtoms, including the 64-atom
// edge where With(63) sets the sign bit and the all-atoms mask is all
// ones.
func TestPredicatesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	sizes := []int{1, 2, 3, 5, 8, 13, 31, 63, 64, 64, 64}
	for trial, n := range sizes {
		for _, vars := range []int{2, n + 1, 3 * n} {
			q := randomQuery(rng, n, vars)
			g, ref := mustGraph(q), newRefGraph(q)
			all := WholeQuery(n)[0]
			randFrag := func() Fragment {
				switch rng.Intn(6) {
				case 0:
					return all
				case 1:
					return Single(n - 1).With(rng.Intn(n))
				case 2:
					// A connected fragment: grow from a random atom.
					f := Single(rng.Intn(n))
					for k := rng.Intn(n); k > 0; k-- {
						i := rng.Intn(n)
						if g.Joins(i, f) {
							f = f.With(i)
						}
					}
					return f
				default:
					return Fragment(rng.Uint64()) & all
				}
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if g.Adjacent(i, j) != ref.adj[i][j] {
						t.Fatalf("trial %d: Adjacent(%d,%d) = %v", trial, i, j, g.Adjacent(i, j))
					}
				}
			}
			for k := 0; k < 200; k++ {
				a, b := randFrag(), randFrag()
				i := rng.Intn(n)
				if got, want := g.Joins(i, a), ref.joins(i, a); got != want {
					t.Fatalf("trial %d: Joins(%d, %v) = %v, want %v", trial, i, a, got, want)
				}
				if got, want := g.FragmentConnected(a), ref.connected(a); got != want {
					t.Fatalf("trial %d: FragmentConnected(%v) = %v, want %v", trial, a, got, want)
				}
				if got, want := g.FragmentsJoin(a, b), ref.fragmentsJoin(a, b); got != want {
					t.Fatalf("trial %d: FragmentsJoin(%v, %v) = %v, want %v", trial, a, b, got, want)
				}
				c := make(Cover, 1+rng.Intn(4))
				for x := range c {
					c[x] = randFrag()
				}
				if rng.Intn(4) == 0 {
					c = NewCover(c...)
				}
				if got, want := g.Valid(c), ref.valid(c); got != want {
					t.Fatalf("trial %d: Valid(%v) = %v, want %v", trial, c, got, want)
				}
				if got, want := c.Minimal(), refMinimal(c); got != want {
					t.Fatalf("trial %d: Minimal(%v) = %v, want %v", trial, c, got, want)
				}
			}
			if !g.FragmentConnected(Single(n-1)) || g.FragmentConnected(0) {
				t.Fatalf("trial %d: single/empty fragment connectivity wrong", trial)
			}
			if g.Valid(Cover{all}) != ref.connected(all) {
				t.Fatalf("trial %d: whole-query validity disagrees with connectivity", trial)
			}
		}
	}
}

// Every enumerated cover must be valid and minimal on random query
// shapes, from two atoms up to queries large enough to trip the bound.
func TestEnumerateAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(10)
		q := connectedQuery(rng, n)
		g, ref := mustGraph(q), newRefGraph(q)
		seen := make(map[string]bool)
		g.EnumerateMinimal(2000, func(c Cover) bool {
			if !g.Valid(c) || !ref.valid(c) {
				t.Errorf("trial %d: invalid cover %v for %s", trial, c, q)
			}
			if !c.Minimal() || !refMinimal(c) {
				t.Errorf("trial %d: non-minimal cover %v", trial, c)
			}
			if seen[c.Key()] {
				t.Errorf("trial %d: duplicate cover %v", trial, c)
			}
			seen[c.Key()] = true
			return true
		})
	}
}

// On small queries an exhaustive enumeration must emit exactly the valid
// minimal covers a brute-force search over all fragment sets finds.
func TestEnumerateComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(4)
		q := randomQuery(rng, n, 2+rng.Intn(n+1))
		g, ref := mustGraph(q), newRefGraph(q)
		var frags []Fragment
		for f := Fragment(1); f < Single(n); f++ {
			if ref.connected(f) {
				frags = append(frags, f)
			}
		}
		want := make(map[string]bool)
		for set := 1; set < 1<<len(frags); set++ {
			var c Cover
			for i, f := range frags {
				if set&(1<<i) != 0 {
					c = append(c, f)
				}
			}
			if ref.valid(c) && refMinimal(c) {
				want[c.Key()] = true
			}
		}
		got := make(map[string]bool)
		if !g.EnumerateMinimal(0, func(c Cover) bool {
			got[c.Key()] = true
			return true
		}) {
			t.Fatalf("trial %d: enumeration of %d atoms not exhaustive", trial, n)
		}
		if len(got) != len(want) {
			t.Errorf("trial %d: enumerated %d covers, brute force finds %d (%s)", trial, len(got), len(want), q)
		}
		for k := range want {
			if !got[k] {
				t.Errorf("trial %d: enumeration misses a valid minimal cover", trial)
			}
		}
	}
}

func TestCoverQuery(t *testing.T) {
	// q(v0) :- t1(v0 p v1), t2(v1 p v2), t3(v2 p v3)
	q := chainQuery(3)
	// Fragment {t2}: head must be v1 (shared with t1) and v2 (shared
	// with t3); v0 (distinguished) is not in the fragment.
	sub := Query(q, Single(1))
	if len(sub.Atoms) != 1 || sub.Atoms[0] != q.Atoms[1] {
		t.Fatalf("fragment atoms wrong: %v", sub.Atoms)
	}
	if len(sub.Head) != 2 || sub.Head[0] != bgp.V(1) || sub.Head[1] != bgp.V(2) {
		t.Errorf("cover query head = %v, want [?v1 ?v2]", sub.Head)
	}
	// Fragment {t1,t2}: head = v0 (distinguished) and v2 (shared with t3).
	sub2 := Query(q, Single(0).With(1))
	if len(sub2.Head) != 2 || sub2.Head[0] != bgp.V(0) || sub2.Head[1] != bgp.V(2) {
		t.Errorf("cover query head = %v, want [?v0 ?v2]", sub2.Head)
	}
	// Whole query: head = distinguished vars only.
	sub3 := Query(q, Single(0).With(1).With(2))
	if len(sub3.Head) != 1 || sub3.Head[0] != bgp.V(0) {
		t.Errorf("whole-query head = %v, want [?v0]", sub3.Head)
	}
}

// mustGraph wraps NewGraph for queries the tests construct under the
// MaxAtoms limit.
func mustGraph(q bgp.CQ) *Graph {
	g, err := NewGraph(q)
	if err != nil {
		panic(err)
	}
	return g
}

// Queries beyond MaxAtoms do not fit the bitmask representation and
// must be rejected, not mis-indexed.
func TestNewGraphTooManyAtoms(t *testing.T) {
	if _, err := NewGraph(chainQuery(MaxAtoms + 1)); err == nil {
		t.Fatal("NewGraph accepted a query beyond MaxAtoms")
	}
	if g, err := NewGraph(chainQuery(MaxAtoms)); err != nil || g.N() != MaxAtoms {
		t.Fatalf("NewGraph rejected a query at the MaxAtoms limit: %v", err)
	}
}
