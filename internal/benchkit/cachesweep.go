package benchkit

import (
	"fmt"
	"io"
	"reflect"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/plancache"
	"repro/internal/rdf"
	"repro/internal/storage"
)

// CacheSweep measures the plan cache on this database: for each named
// query it reports the cold answer time, the warm (cached) time averaged
// over warm repeats, and the time of a re-answer after a store mutation
// (which invalidates the entry and forces a re-plan against the fresh
// statistics). Rows are asserted identical across cold and warm runs, and
// the mutated run is asserted *not* to be served from the cache. Empty
// queryNames sweeps the whole workload.
func (db *Database) CacheSweep(w io.Writer, queryNames []string, warm int) error {
	if warm < 1 {
		warm = 3
	}
	if len(queryNames) == 0 {
		for _, s := range db.Specs {
			queryNames = append(queryNames, s.Name)
		}
	}
	pc := plancache.New(0)
	a := db.Answerer(engine.Native, core.Options{PlanCache: pc})

	// The mutation is a synthetic triple over a property no workload query
	// touches: it changes the store version (invalidating every entry)
	// without disturbing the workload's answers once removed.
	synthetic := storage.Triple{
		S: db.Dict.Encode(rdf.NewIRI("urn:benchkit:cache-sweep-subject")),
		P: db.Dict.Encode(rdf.NewIRI("urn:benchkit:cache-sweep-property")),
		O: db.Dict.Encode(rdf.NewIRI("urn:benchkit:cache-sweep-object")),
	}

	fmt.Fprintf(w, "%s: plan cache sweep (strategy gcov, %d warm runs)\n\n", db.Name, warm)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Query\tRows\tCold\tWarm (cached)\tAfter mutation\n")
	for _, name := range queryNames {
		qi := db.QueryIndex(name)
		if qi < 0 {
			return fmt.Errorf("benchkit: unknown query %q", name)
		}
		q := db.Encoded[qi]

		coldStart := time.Now()
		cold, err := a.Answer(q, core.GCov)
		if err != nil {
			return fmt.Errorf("benchkit: %s cold: %w", name, err)
		}
		coldTime := time.Since(coldStart)
		if cold.Report.Cached {
			return fmt.Errorf("benchkit: %s cold run served from the cache", name)
		}

		var warmTime time.Duration
		for i := 0; i < warm; i++ {
			start := time.Now()
			w2, err := a.Answer(q, core.GCov)
			if err != nil {
				return fmt.Errorf("benchkit: %s warm: %w", name, err)
			}
			warmTime += time.Since(start)
			if !w2.Report.Cached {
				return fmt.Errorf("benchkit: %s warm run %d missed the cache", name, i+1)
			}
			if !reflect.DeepEqual(w2.Rel.Rows, cold.Rel.Rows) {
				return fmt.Errorf("benchkit: %s cached answer differs from cold answer", name)
			}
		}
		warmTime /= time.Duration(warm)

		// Mutate, re-answer (must re-plan), then restore the content.
		db.Raw.Add(synthetic)
		mutStart := time.Now()
		mut, err := a.Answer(q, core.GCov)
		mutTime := time.Since(mutStart)
		db.Raw.Remove(synthetic)
		if err != nil {
			return fmt.Errorf("benchkit: %s post-mutation: %w", name, err)
		}
		if mut.Report.Cached {
			return fmt.Errorf("benchkit: %s answered from a stale plan after mutation", name)
		}

		fmt.Fprintf(tw, "%s\t%d\t%v\t%v\t%v\n", name, cold.Rel.Len(),
			coldTime.Round(time.Microsecond), warmTime.Round(time.Microsecond),
			mutTime.Round(time.Microsecond))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	st := pc.Snapshot()
	fmt.Fprintf(w, "\ncache: %d hits / %d lookups (%.0f%% hit rate), %d invalidations, %d entries\n",
		st.Hits, st.Lookups(), 100*st.HitRate(), st.Invalidations, pc.Len())
	return nil
}
