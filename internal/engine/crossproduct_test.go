package engine_test

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/bgp"
	"repro/internal/engine"
	"repro/internal/naive"
	"repro/internal/stats"
	"repro/internal/testkit"
)

// The tests in this file exercise cross-product shapes: CQs whose atoms
// share no variable, unions of such members, and JUCQs whose arms meet
// in a cartesian arm join. These are the shapes whose answers are
// products of independent factors, so they stress the bind join's
// cross-product path and its budget accounting.

// errClass maps an evaluation error to its sentinel, so differential
// checks compare failure kinds (serial and parallel evaluation agree on
// which budget a query blows, not on the instant it blows).
func errClass(err error) error {
	for _, sentinel := range []error{
		engine.ErrPlanTooComplex, engine.ErrMemoryBudget,
		engine.ErrWorkBudget, engine.ErrCanceled,
	} {
		if errors.Is(err, sentinel) {
			return sentinel
		}
	}
	return err
}

// checkDifferential evaluates q serially and with four workers and
// asserts byte-identical rows with identical metrics (or failure with
// the same sentinel).
func checkDifferential(t *testing.T, eng *engine.Engine, q bgp.CQ, label string) {
	t.Helper()
	wantRel, wantMet, wantErr := eng.WithParallelism(1).EvalCQ(q)
	gotRel, gotMet, gotErr := eng.WithParallelism(4).EvalCQ(q)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: serial err=%v parallel err=%v", label, wantErr, gotErr)
	}
	if wantErr != nil {
		if errClass(wantErr) != errClass(gotErr) {
			t.Fatalf("%s: error class differs: serial %v parallel %v", label, wantErr, gotErr)
		}
		return
	}
	if gotMet != wantMet {
		t.Errorf("%s: metrics differ:\n parallel %+v\n serial   %+v", label, gotMet, wantMet)
	}
	if !relEqual(gotRel, wantRel) {
		t.Fatalf("%s: parallel rows differ from serial evaluation", label)
	}
}

// disconnectedQuery builds a cross-product query: k independent
// single-atom components, each binding one head variable.
func disconnectedQuery(e *testkit.Example, rng *rand.Rand, k int) bgp.CQ {
	q := bgp.CQ{}
	for i := 0; i < k; i++ {
		v := bgp.V(uint32(i))
		var a bgp.Atom
		if rng.Intn(2) == 0 {
			cs := e.Closed.Classes()
			a = bgp.Atom{S: v, P: bgp.C(e.Vocab.Type), O: bgp.C(cs[rng.Intn(len(cs))])}
		} else {
			ps := e.Closed.Properties()
			a = bgp.Atom{S: v, P: bgp.C(ps[rng.Intn(len(ps))]), O: bgp.V(uint32(100 + i))}
		}
		q.Atoms = append(q.Atoms, a)
		q.Head = append(q.Head, v)
	}
	return q
}

// Serial and parallel evaluation must be indistinguishable — rows,
// order and metrics — on random connected and disconnected CQ shapes.
func TestFactorizedDifferentialCQ(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		e := testkit.Random(seed, 80)
		raw := e.RawStore()
		st := stats.Collect(raw, e.Vocab)
		for _, prof := range []engine.Profile{engine.Native, engine.PostgresLike} {
			eng := engine.New(raw, st, prof)
			rng := rand.New(rand.NewSource(seed * 31))
			for i := 0; i < 6; i++ {
				checkDifferential(t, eng, testkit.RandomQuery(e, rng), prof.Name)
			}
			for k := 2; k <= 4; k++ {
				checkDifferential(t, eng, disconnectedQuery(e, rng, k), prof.Name)
			}
		}
	}
}

// A cross product must agree with the naive evaluator, not just with
// the engine's own serial path.
func TestFactorizedMatchesNaive(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		e := testkit.Random(seed, 60)
		raw := e.RawStore()
		eng := engine.New(raw, stats.Collect(raw, e.Vocab), engine.Native)
		rng := rand.New(rand.NewSource(seed))
		q := disconnectedQuery(e, rng, 2+int(seed%3))
		rel, _, err := eng.EvalCQ(q)
		if err != nil {
			t.Fatal(err)
		}
		if !naive.Equal(toRows(rel), naive.EvalCQ(raw, q)) {
			t.Errorf("seed %d: cross-product answers differ from naive", seed)
		}
	}
}

// Unions whose members join a type atom with a shared variable-disjoint
// tail — plus, on odd seeds, a connected member with the same head —
// must agree with naive union semantics, serial and parallel alike.
func TestFactorizedDifferentialUCQ(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		e := testkit.Random(seed, 80)
		raw := e.RawStore()
		eng := engine.New(raw, stats.Collect(raw, e.Vocab), engine.Native)
		rng := rand.New(rand.NewSource(seed * 7))
		cs := e.Closed.Classes()
		ps := e.Closed.Properties()

		tail := bgp.Atom{S: bgp.V(1), P: bgp.C(ps[rng.Intn(len(ps))]), O: bgp.V(2)}
		u := bgp.UCQ{Vars: []uint32{0, 1}}
		for i := 0; i < 3; i++ {
			u.CQs = append(u.CQs, bgp.CQ{
				Head:  []bgp.Term{bgp.V(0), bgp.V(1)},
				Atoms: []bgp.Atom{{S: bgp.V(0), P: bgp.C(e.Vocab.Type), O: bgp.C(cs[i%len(cs)])}, tail},
			})
		}
		if seed%2 == 1 {
			u.CQs = append(u.CQs, bgp.CQ{
				Head:  []bgp.Term{bgp.V(0), bgp.V(1)},
				Atoms: []bgp.Atom{{S: bgp.V(0), P: bgp.C(ps[0]), O: bgp.V(1)}},
			})
		}

		wantRel, wantMet, wantErr := eng.WithParallelism(1).EvalUCQ(u)
		if wantErr != nil {
			t.Fatalf("seed %d: serial err=%v", seed, wantErr)
		}
		if !naive.Equal(toRows(wantRel), naive.EvalUCQ(raw, u)) {
			t.Errorf("seed %d: UCQ answers differ from naive", seed)
		}
		gotRel, gotMet, gotErr := eng.WithParallelism(4).EvalUCQ(u)
		if gotErr != nil {
			t.Fatalf("seed %d: parallel err=%v", seed, gotErr)
		}
		if gotMet != wantMet {
			t.Errorf("seed %d: metrics differ:\n parallel %+v\n serial   %+v", seed, gotMet, wantMet)
		}
		if !relEqual(gotRel, wantRel) {
			t.Fatalf("seed %d: parallel UCQ rows differ from serial", seed)
		}
	}
}

// Disconnected JUCQ arms meet in a cartesian arm join; the product must
// match naive JUCQ semantics, and parallel evaluation must not change
// rows or metrics.
func TestFactorizedDifferentialCartesianArms(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		e := testkit.Random(seed, 80)
		raw := e.RawStore()
		eng := engine.New(raw, stats.Collect(raw, e.Vocab), engine.Native)
		cs := e.Closed.Classes()
		ps := e.Closed.Properties()
		j := bgp.JUCQ{
			Head: []uint32{0, 1},
			Arms: []bgp.UCQ{
				{Vars: []uint32{0}, CQs: []bgp.CQ{{
					Head:  []bgp.Term{bgp.V(0)},
					Atoms: []bgp.Atom{{S: bgp.V(0), P: bgp.C(e.Vocab.Type), O: bgp.C(cs[0])}},
				}}},
				{Vars: []uint32{1}, CQs: []bgp.CQ{{
					Head:  []bgp.Term{bgp.V(1)},
					Atoms: []bgp.Atom{{S: bgp.V(1), P: bgp.C(ps[0]), O: bgp.V(2)}},
				}}},
			},
		}
		wantRel, wantMet, wantErr := eng.WithParallelism(1).EvalJUCQ(j)
		if wantErr != nil {
			t.Fatalf("seed %d: serial err=%v", seed, wantErr)
		}
		if !naive.Equal(toRows(wantRel), naive.EvalJUCQ(raw, j)) {
			t.Errorf("seed %d: cartesian arm join differs from naive", seed)
		}
		gotRel, gotMet, gotErr := eng.WithParallelism(4).EvalJUCQ(j)
		if gotErr != nil {
			t.Fatalf("seed %d: parallel err=%v", seed, gotErr)
		}
		if gotMet != wantMet {
			t.Errorf("seed %d: metrics differ:\n parallel %+v\n serial   %+v", seed, gotMet, wantMet)
		}
		if !relEqual(gotRel, wantRel) {
			t.Fatalf("seed %d: parallel cartesian arm join rows differ from serial", seed)
		}
	}
}

// A four-way cross product must trip a tight work budget and a tight
// materialization budget, with the same error class serial and parallel.
func TestFactorizedBudgetErrors(t *testing.T) {
	e := testkit.Random(3, 120)
	raw := e.RawStore()
	st := stats.Collect(raw, e.Vocab)
	rng := rand.New(rand.NewSource(11))
	q := disconnectedQuery(e, rng, 4)
	for _, tc := range []struct {
		prof engine.Profile
		want error
	}{
		{engine.Profile{Name: "tinywork", WorkBudget: 50, ArmJoin: engine.HashJoin}, engine.ErrWorkBudget},
		{engine.Profile{Name: "tinymem", MaxMaterializedRows: 5, ArmJoin: engine.HashJoin}, engine.ErrMemoryBudget},
	} {
		eng := engine.New(raw, st, tc.prof)
		_, _, serialErr := eng.WithParallelism(1).EvalCQ(q)
		_, _, parallelErr := eng.WithParallelism(4).EvalCQ(q)
		if !errors.Is(serialErr, tc.want) {
			t.Errorf("%s: serial err %v, want %v", tc.prof.Name, serialErr, tc.want)
		}
		if errClass(serialErr) != errClass(parallelErr) {
			t.Errorf("%s: serial err %v, parallel err %v", tc.prof.Name, serialErr, parallelErr)
		}
	}
}
