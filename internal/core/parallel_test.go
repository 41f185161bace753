package core_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/benchkit"
	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/naive"
	"repro/internal/testkit"
)

// The cover searches must be deterministic in the worker count: the
// chosen cover, the search effort, the estimated cost, and the final
// answer must be identical at Parallelism 1 and 8 for both ECov and GCov.
func TestParallelSearchMatchesSequential(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		e := testkit.Random(seed, 50)
		seq := answererFor(e, engine.Native, core.Options{Parallelism: 1})
		par := answererFor(e, engine.Native, core.Options{Parallelism: 8})
		rng := rand.New(rand.NewSource(seed + 5100))
		for qi := 0; qi < 3; qi++ {
			q := testkit.RandomQuery(e, rng)
			if !coverableQuery(q) {
				continue
			}
			for _, strat := range []core.Strategy{core.ECov, core.GCov} {
				wantC, wantRep, err := seq.ChooseCover(q, strat)
				if err != nil {
					t.Fatalf("seed %d %s sequential: %v", seed, strat, err)
				}
				gotC, gotRep, err := par.ChooseCover(q, strat)
				if err != nil {
					t.Fatalf("seed %d %s parallel: %v", seed, strat, err)
				}
				if gotC.Key() != wantC.Key() {
					t.Errorf("seed %d %s on %s: parallel cover %v, sequential %v",
						seed, strat, q, gotC, wantC)
				}
				if gotRep.CoversExplored != wantRep.CoversExplored {
					t.Errorf("seed %d %s: parallel explored %d covers, sequential %d",
						seed, strat, gotRep.CoversExplored, wantRep.CoversExplored)
				}
				if gotRep.Exhaustive != wantRep.Exhaustive {
					t.Errorf("seed %d %s: parallel exhaustive=%v, sequential %v",
						seed, strat, gotRep.Exhaustive, wantRep.Exhaustive)
				}
				if gotRep.EstimatedCost != wantRep.EstimatedCost {
					t.Errorf("seed %d %s: parallel cost %v, sequential %v",
						seed, strat, gotRep.EstimatedCost, wantRep.EstimatedCost)
				}
				if !reflect.DeepEqual(gotRep.FragmentCQs, wantRep.FragmentCQs) {
					t.Errorf("seed %d %s: parallel fragment CQs %v, sequential %v",
						seed, strat, gotRep.FragmentCQs, wantRep.FragmentCQs)
				}

				wantAns, err := seq.Answer(q, strat)
				if err != nil {
					t.Fatalf("seed %d %s sequential answer: %v", seed, strat, err)
				}
				gotAns, err := par.Answer(q, strat)
				if err != nil {
					t.Fatalf("seed %d %s parallel answer: %v", seed, strat, err)
				}
				if !naive.Equal(relRows(gotAns.Rel), relRows(wantAns.Rel)) {
					t.Errorf("seed %d %s: parallel answer differs from sequential", seed, strat)
				}
				if gotAns.Report.Metrics != wantAns.Report.Metrics {
					t.Errorf("seed %d %s: parallel metrics %+v, sequential %+v",
						seed, strat, gotAns.Report.Metrics, wantAns.Report.Metrics)
				}
			}
		}
	}
}

// Concurrent Answer calls on one shared parallel answerer exercise the
// searcher memos and the engine shards together under the race detector.
func TestParallelAnswerRace(t *testing.T) {
	e := testkit.Random(5, 60)
	a := answererFor(e, engine.Native, core.Options{Parallelism: 4})
	rng := rand.New(rand.NewSource(5500))
	var queries []bgp.CQ
	for len(queries) < 3 {
		q := testkit.RandomQuery(e, rng)
		if coverableQuery(q) {
			queries = append(queries, q)
		}
	}
	want := make(map[int]map[core.Strategy]naive.Rows)
	seq := answererFor(e, engine.Native, core.Options{Parallelism: 1})
	for i, q := range queries {
		want[i] = make(map[core.Strategy]naive.Rows)
		for _, strat := range []core.Strategy{core.ECov, core.GCov} {
			ans, err := seq.Answer(q, strat)
			if err != nil {
				t.Fatal(err)
			}
			want[i][strat] = relRows(ans.Rel)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, q := range queries {
				strat := core.ECov
				if (w+i)%2 == 1 {
					strat = core.GCov
				}
				ans, err := a.Answer(q, strat)
				if err != nil {
					t.Errorf("concurrent %s: %v", strat, err)
					return
				}
				if !naive.Equal(relRows(ans.Rel), want[i][strat]) {
					t.Errorf("concurrent %s diverged from sequential answer", strat)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// ECov's pool prices covers in batches and GCov's develops a round on the
// pool; neither may make any decision depend on the worker count. On
// every LUBM and DBLP tiny query, at Parallelism 1, 2 and 8, both
// searches must report the same cover, effort and bit-identical cost.
// The neutral DefaultParams keep pricing fixed across answerers (a
// calibration is timed, so two calibrations price differently). The
// second bound, 1000 covers, is not a multiple of the pricing batch, so
// ECov's last batch is a partial one; the default bound is what DBLP Q10
// stops at.
func TestParallelSearchBenchmarkQueries(t *testing.T) {
	lubm, err := benchkit.BuildLUBM(benchkit.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	dblp, err := benchkit.BuildDBLP(benchkit.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	for _, db := range []*benchkit.Database{lubm, dblp} {
		for _, maxCovers := range []int{0, 1000} {
			var as []*core.Answerer
			for _, par := range []int{1, 2, 8} {
				as = append(as, db.Answerer(engine.Native, core.Options{
					Params: cost.DefaultParams, Parallelism: par, MaxCovers: maxCovers,
				}))
			}
			for qi, q := range db.Encoded {
				for _, strat := range []core.Strategy{core.ECov, core.GCov} {
					name := fmt.Sprintf("%s %s %s MaxCovers=%d", db.Name, db.Specs[qi].Name, strat, maxCovers)
					wantC, want, err := as[0].ChooseCover(q, strat)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					for i, a := range as[1:] {
						gotC, got, err := a.ChooseCover(q, strat)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if gotC.Key() != wantC.Key() || got.CoversExplored != want.CoversExplored ||
							got.Exhaustive != want.Exhaustive || got.TotalCQs != want.TotalCQs ||
							got.EstimatedCost != want.EstimatedCost {
							t.Errorf("%s: worker pool #%d chose %v (explored %d, exhaustive %v, %d CQs, cost %v), sequential %v (explored %d, exhaustive %v, %d CQs, cost %v)",
								name, i+1, gotC, got.CoversExplored, got.Exhaustive, got.TotalCQs, got.EstimatedCost,
								wantC, want.CoversExplored, want.Exhaustive, want.TotalCQs, want.EstimatedCost)
						}
					}
				}
			}
		}
	}
}

// A context canceled while ECov's pool is pricing — in the middle of a
// batch, at any realistic timing — must fail the search with the typed
// engine.ErrCanceled and leave no pricing goroutine behind.
func TestECovCanceledMidBatch(t *testing.T) {
	db, err := benchkit.BuildDBLP(benchkit.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	q := db.Encoded[db.QueryIndex("Q10")] // 100,000 covers: long enough to cancel mid-stream
	before := runtime.NumGoroutine()
	for _, par := range []int{2, 8} {
		a := db.Answerer(engine.Native, core.Options{Params: cost.DefaultParams, Parallelism: par})
		for _, after := range []time.Duration{0, time.Millisecond, 5 * time.Millisecond} {
			ctx, cancel := context.WithCancel(context.Background())
			timer := time.AfterFunc(after, cancel)
			_, err := a.AnswerContext(ctx, q, core.ECov)
			timer.Stop()
			cancel()
			if !errors.Is(err, engine.ErrCanceled) {
				t.Errorf("par %d, canceled after %v: err = %v, want %v", par, after, err, engine.ErrCanceled)
			}
		}
	}
	// Goroutines that already returned may take a moment to be reaped.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the canceled searches, %d before", n, before)
	}
}

// A star of k atoms over one property is symmetric: permuting the atoms
// maps covers to covers of equal cost, so many covers tie at the
// minimum, within one pricing batch (k = 4) and across batches (k = 5,
// 6: 462 and 6,424 covers). ECov must keep the earliest-enumerated of
// the tied covers at every worker count, as the sequential scan does.
func TestECovTieBreakMatchesSequential(t *testing.T) {
	e := testkit.Paper()
	seq := answererFor(e, engine.Native, core.Options{Params: cost.DefaultParams, Parallelism: 1})
	for k := 4; k <= 6; k++ {
		q := bgp.CQ{Head: []bgp.Term{bgp.V(0)}}
		for i := 1; i <= k; i++ {
			q.Atoms = append(q.Atoms, bgp.Atom{S: bgp.V(0), P: bgp.C(e.ID("hasAuthor")), O: bgp.V(uint32(i))})
		}
		wantC, want, err := seq.ChooseCover(q, core.ECov)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{2, 8} {
			a := answererFor(e, engine.Native, core.Options{Params: cost.DefaultParams, Parallelism: par})
			gotC, got, err := a.ChooseCover(q, core.ECov)
			if err != nil {
				t.Fatal(err)
			}
			if gotC.Key() != wantC.Key() || got.CoversExplored != want.CoversExplored || got.EstimatedCost != want.EstimatedCost {
				t.Errorf("%d-atom star, %d workers: chose %v (explored %d, cost %v), sequential %v (explored %d, cost %v)",
					k, par, gotC, got.CoversExplored, got.EstimatedCost, wantC, want.CoversExplored, want.EstimatedCost)
			}
		}
	}
}
