package benchkit

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

// Every LUBM and DBLP query under every strategy must come back from a
// parallel answerer exactly as from a sequential one: byte-identical
// rows and strictly equal engine metrics — or the same error text.
func TestWorkloadParallelMatchesSequential(t *testing.T) {
	for _, db := range []*Database{tinyLUBM(t), tinyDBLP(t)} {
		seq := db.Answerer(engine.Native, core.Options{Parallelism: 1})
		par := db.Answerer(engine.Native, core.Options{})
		for _, strat := range core.Strategies() {
			for qi, spec := range db.Specs {
				label := db.Name + "/" + spec.Name + "/" + string(strat)
				q := db.Encoded[qi]
				want, errSeq := seq.Answer(q, strat)
				got, errPar := par.Answer(q, strat)
				if (errPar == nil) != (errSeq == nil) {
					t.Fatalf("%s: parallel err=%v, sequential err=%v", label, errPar, errSeq)
				}
				if errSeq != nil {
					if errPar.Error() != errSeq.Error() {
						t.Errorf("%s: error diverges: %v vs %v", label, errPar, errSeq)
					}
					continue
				}
				if got.Report.Metrics != want.Report.Metrics {
					t.Errorf("%s: metrics diverge:\nparallel:   %+v\nsequential: %+v",
						label, got.Report.Metrics, want.Report.Metrics)
				}
				if !reflect.DeepEqual(got.Rel.Rows, want.Rel.Rows) {
					t.Errorf("%s: parallel rows differ from sequential", label)
				}
			}
		}
	}
}
