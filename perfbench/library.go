package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/dblp"
	"repro/internal/dict"
	"repro/internal/engine"
	"repro/internal/lubm"
	"repro/internal/rdf"
	"repro/internal/reformulate"
	"repro/internal/saturate"
	"repro/internal/schema"
	"repro/internal/sparql"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/trace"
)

// query is one named benchmark query.
type query struct{ name, text string }

// dataset is a generated database: its ontology, data triples and
// queries. The benchmark generates it once per run, outside any timing.
type dataset struct {
	name     string
	ontology []rdf.Triple
	data     []rdf.Triple
	queries  []query
}

// The LUBM scales the workloads use. LUBM draws a university's
// department count from a range (2–3 tiny, 15–25 default), which makes
// the database size swing by up to 1.7x from seed to seed. The benchmark
// pins the count at the bottom of the range, so every seed yields the
// same scale (about 1,300 and 84,000 triples) and the seed varies
// everything inside the departments.
func lubmTiny() lubm.Config  { return pinDepartments(lubm.Tiny(), 3) }
func lubmSmall() lubm.Config { return pinDepartments(lubm.Default(), 15) }

func pinDepartments(cfg lubm.Config, n int) lubm.Config {
	cfg.DeptsMin, cfg.DeptsMax = n, n
	return cfg
}

func lubmDataset(cfg lubm.Config, seed int64) dataset {
	ds := dataset{name: "LUBM", ontology: lubm.Ontology()}
	lubm.Generate(1, seed, cfg, func(t rdf.Triple) { ds.data = append(ds.data, t) })
	for _, q := range lubm.Queries() {
		ds.queries = append(ds.queries, query{name: q.Name, text: q.Text})
	}
	return ds
}

// dblpTinyPubs is the publication count of the DBLP tiny scale.
const dblpTinyPubs = 500

func dblpDataset(pubs int, seed int64) dataset {
	ds := dataset{name: "DBLP", ontology: dblp.Ontology()}
	dblp.Generate(pubs, seed, func(t rdf.Triple) { ds.data = append(ds.data, t) })
	for _, q := range dblp.Queries() {
		ds.queries = append(ds.queries, query{name: q.Name, text: q.Text})
	}
	return ds
}

// setupOptions selects what a library set-up builds.
type setupOptions struct {
	profile   engine.Profile
	saturate  bool // build the saturated store (the Saturation strategy needs it)
	calibrate bool // fit the cost model to the profile, as the paper does per RDBMS
}

// libDB is a database ready to answer: the dictionary, the closed
// schema, the raw (and optionally saturated) store and the answerer.
type libDB struct {
	name     string
	dict     *dict.Dict
	closed   *schema.Closed
	raw      *storage.Store
	sat      *storage.Store
	answerer *core.Answerer
	satEng   *engine.Engine
}

// setupLib builds ds into an answerer, recording each step as a child
// span of sp (nil records nothing): dictionary encoding, bulk load,
// saturation, statistics and calibration.
func setupLib(ds dataset, opts setupOptions, sp *trace.Span) *libDB {
	db := &libDB{name: ds.name, dict: dict.New()}
	encSp := sp.Child("dict")
	vocab := schema.EncodeVocab(db.dict)
	sch := schema.New(vocab)
	for _, t := range ds.ontology {
		s, p, o := db.dict.EncodeTriple(t)
		sch.AddTriple(s, p, o)
	}
	db.closed = sch.Close()
	b := storage.NewBuilder()
	for _, t := range ds.data {
		s, p, o := db.dict.EncodeTriple(t)
		b.Add(storage.Triple{S: s, P: p, O: o})
	}
	for _, c := range db.closed.ConstraintTriples() {
		b.Add(storage.Triple{S: c[0], P: c[1], O: c[2]})
	}
	encSp.End()

	loadSp := sp.Child("load")
	db.raw = b.Build()
	loadSp.End()
	statsSp := sp.Child("stats")
	rawStats := stats.Collect(db.raw, vocab)
	statsSp.End()

	if opts.saturate {
		satSp := sp.Child("saturate")
		db.sat, _ = saturate.StoreFrom(db.raw.Each, db.closed)
		satSp.End()
		statsSp := sp.Child("stats")
		satStats := stats.Collect(db.sat, vocab)
		statsSp.End()
		db.satEng = engine.New(db.sat, satStats, opts.profile)
	}

	rawEng := engine.New(db.raw, rawStats, opts.profile)
	var params core.Options
	if opts.calibrate {
		calSp := sp.Child("calibrate")
		params.Params = core.Calibrate(rawEng)
		calSp.End()
	}
	db.answerer = core.NewAnswerer(db.closed, rawEng, db.satEng, params)
	return db
}

// decodeRows expands a relation into rows of terms through the
// dictionary, as repro.Result.Rows does.
func decodeRows(rel *engine.Relation, d *dict.Dict) [][]rdf.Term {
	rows := make([][]rdf.Term, 0, rel.Len())
	rel.Each(func(ids []dict.ID) bool {
		row := make([]rdf.Term, len(ids))
		for i, id := range ids {
			row[i] = d.Term(id)
		}
		rows = append(rows, row)
		return true
	})
	return rows
}

// termDigest fingerprints decoded rows by their canonical spellings.
func termDigest(rows [][]rdf.Term) answerDigest {
	var d answerDigest
	buf := make([]string, 0, 8)
	for _, r := range rows {
		buf = buf[:0]
		for _, t := range r {
			buf = append(buf, t.Canonical())
		}
		d.add(buf)
	}
	return d
}

// reference answers every query of ds by saturation-based evaluation
// over a saturated store of the same triples (the answer every cover's
// JUCQ must return, Theorem 3.1) and returns the digests by query name,
// with the raw and saturated triple counts and the raw store's
// footprint.
func reference(ds dataset) (map[string]answerDigest, dbInfo, error) {
	db := setupLib(ds, setupOptions{profile: engine.Native, saturate: true}, nil)
	refs := make(map[string]answerDigest, len(ds.queries))
	for _, q := range ds.queries {
		rows, err := db.answerUntraced(q.text, core.Saturation)
		if err != nil {
			return nil, dbInfo{}, fmt.Errorf("reference %s %s: %w", ds.name, q.name, err)
		}
		refs[q.name] = termDigest(rows)
	}
	fp := db.raw.Footprint()
	info := dbInfo{
		Name:       ds.name,
		Raw:        db.raw.Len(),
		Saturated:  db.sat.Len(),
		IndexBytes: fp.IndexBytes(),
	}
	return refs, info, nil
}

// dbInfo describes one database of a workload for the report.
type dbInfo struct {
	Name       string `json:"name"`
	Raw        int    `json:"raw_triples"`
	Saturated  int    `json:"saturated_triples"`
	IndexBytes int    `json:"raw_index_bytes"`
}

// answerUntraced is one timed library operation: parse, encode, answer
// through core.Answerer.Answer and decode the rows — the sequence
// repro.Answerer.Query followed by Result.Rows runs.
func (db *libDB) answerUntraced(text string, strat core.Strategy) ([][]rdf.Term, error) {
	q, err := sparql.Parse(text)
	if err != nil {
		return nil, err
	}
	enc, err := sparql.Encode(q, db.dict)
	if err != nil {
		return nil, err
	}
	ans, err := db.answerer.Answer(enc.CQ, strat)
	if err != nil {
		return nil, err
	}
	return decodeRows(ans.Rel, db.dict), nil
}

// answerTraced is answerUntraced decomposed into one span per layer
// call under root: parse, encode, optimize (ChooseCover), reformulate
// (every chosen fragment, once more than Answer does), evaluate
// (EvalArms on the raw engine, or EvalCQ on the saturated one) and
// decode. Each span carries the layer's counts.
func (db *libDB) answerTraced(root *trace.Span, text string, strat core.Strategy) ([][]rdf.Term, error) {
	sp := root.Child("parse")
	q, err := sparql.Parse(text)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = root.Child("encode")
	enc, err := sparql.Encode(q, db.dict)
	sp.End()
	if err != nil {
		return nil, err
	}

	var rel *engine.Relation
	var m engine.Metrics
	if strat == core.Saturation {
		sp = root.Child("evaluate")
		rel, m, err = db.satEng.EvalCQ(enc.CQ)
	} else {
		sp = root.Child("optimize")
		var c cover.Cover
		var rep core.Report
		c, rep, err = db.answerer.ChooseCover(enc.CQ, strat)
		sp.SetInt("covers_explored", int64(rep.CoversExplored))
		sp.SetInt("total_cqs", rep.TotalCQs)
		sp.End()
		if err != nil {
			return nil, err
		}
		sp = root.Child("reformulate")
		arms := make([]engine.ArmSource, len(c))
		var cqs int64
		for i, f := range c {
			cq := cover.Query(enc.CQ, f)
			ref, err := reformulate.Reformulate(cq, db.closed)
			if err != nil {
				sp.End()
				return nil, err
			}
			arms[i] = armSource(cq, ref)
			cqs += ref.NumCQs()
		}
		sp.SetInt("cqs", cqs)
		sp.End()
		sp = root.Child("evaluate")
		rel, m, err = db.answerer.Raw().EvalArms(headVars(enc.CQ), arms)
	}
	if err == nil {
		sp.SetInt("tuples_scanned", m.TuplesScanned)
		sp.SetInt("rows_joined", m.RowsJoined)
		sp.SetInt("rows_materialized", m.RowsMaterialized)
		sp.SetInt("rows_deduped", m.RowsDeduped)
		sp.SetInt("union_arms", m.UnionArms)
		sp.SetInt("work", m.Work)
		sp.SetInt("rows_out", int64(rel.Len()))
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = root.Child("decode")
	rows := decodeRows(rel, db.dict)
	sp.End()
	return rows, nil
}

// armSource streams a fragment's reformulation as an engine arm, as
// core builds its arms.
func armSource(cq bgp.CQ, ref *reformulate.Reformulation) engine.ArmSource {
	n := ref.NumCQs()
	return engine.ArmSource{
		Vars:   ref.Vars,
		NumCQs: n,
		Leaves: n * int64(len(cq.Atoms)),
		Each:   ref.Each,
	}
}

func headVars(q bgp.CQ) []uint32 {
	head := make([]uint32, len(q.Head))
	for i, h := range q.Head {
		head[i] = h.ID
	}
	return head
}

// libOp is one (database, query, strategy) operation of a pass.
type libOp struct {
	db    *libDB
	q     query
	strat core.Strategy
	ref   answerDigest
}

func (o libOp) String() string { return fmt.Sprintf("%s %s %s", o.db.name, o.q.name, o.strat) }

// libWorkload describes a library workload: its datasets, the
// strategies it runs on every query, and the set-up repetitions.
type libWorkload struct {
	datasets   []dataset
	strategies []core.Strategy
	setupReps  int
}

func runPlanHeavy(cfg config, res *runResult) error {
	return runLibrary(cfg, res, libWorkload{
		datasets: []dataset{
			lubmDataset(lubmTiny(), cfg.lubmSeed()),
			dblpDataset(dblpTinyPubs, cfg.dblpSeed()),
		},
		strategies: []core.Strategy{core.ECov, core.GCov},
		setupReps:  50,
	})
}

func runEvalHeavy(cfg config, res *runResult) error {
	return runLibrary(cfg, res, libWorkload{
		datasets:   []dataset{lubmDataset(lubmSmall(), cfg.lubmSeed())},
		strategies: []core.Strategy{core.SCQ, core.GCov, core.Saturation},
		setupReps:  7,
	})
}

// runLibrary runs a library workload from one closed-loop caller:
// reference answers, set-up (repeated, median reported), one untimed
// warm-up pass, then whole passes over every (query, strategy) until the
// measured time is spent. The traced run alternates traced and untraced
// passes so it can report tracing overhead.
func runLibrary(cfg config, res *runResult, w libWorkload) error {
	needSat := false
	for _, s := range w.strategies {
		needSat = needSat || s == core.Saturation
	}
	opts := setupOptions{profile: engine.PostgresLike, saturate: needSat, calibrate: true}

	// Reference answers first, so their stores are garbage before the
	// heap is measured.
	refs := make([]map[string]answerDigest, len(w.datasets))
	infos := make([]dbInfo, len(w.datasets))
	for i, ds := range w.datasets {
		var err error
		if refs[i], infos[i], err = reference(ds); err != nil {
			return err
		}
	}

	var setupS []float64
	setupLayers := map[string][]float64{}
	var dbs []*libDB
	for rep := 0; rep < w.setupReps; rep++ {
		dbs = nil
		runtime.GC() // start every repetition from the same heap state
		root := trace.New("setup")
		start := time.Now()
		for _, ds := range w.datasets {
			dbs = append(dbs, setupLib(ds, opts, root))
		}
		setupS = append(setupS, time.Since(start).Seconds())
		root.End()
		acc := map[string]time.Duration{}
		fromSpan(root).selfTimes(acc)
		for name, d := range acc {
			setupLayers[name] = append(setupLayers[name], d.Seconds())
		}
	}

	var ops []libOp
	var lists []string
	for i, db := range dbs {
		for _, s := range w.strategies {
			for _, q := range w.datasets[i].queries {
				ops = append(ops, libOp{db: db, q: q, strat: s, ref: refs[i][q.name]})
			}
			lists = append(lists, fmt.Sprintf("%s %d queries x %s", db.name, len(w.datasets[i].queries), s))
		}
	}

	// The generated triples are input, not program state: drop them
	// before the heap is measured.
	for i := range w.datasets {
		w.datasets[i].data = nil
	}

	// Warm-up: every op once, untimed; its answers are checked too.
	for _, o := range ops {
		rows, err := o.db.answerUntraced(o.q.text, o.strat)
		res.record(check(rows, err, o.ref), "warm-up "+o.String()+failure(err))
	}

	heapMB := heapInuseMB()

	var rawTriples, indexBytes int
	for _, info := range infos {
		rawTriples += info.Raw
		indexBytes += info.IndexBytes
	}
	res.report["databases"] = infos
	res.report["ops"] = lists
	res.report["ops_per_pass"] = len(ops)
	res.report["profile"] = opts.profile.Name
	res.report["lubm_seed"] = cfg.lubmSeed()
	res.report["dblp_seed"] = cfg.dblpSeed()
	res.report["setup_reps"] = w.setupReps
	res.report["setup_s"] = setupS

	if cfg.trace {
		tracedLibrary(cfg, res, ops, setupLayers, dbs)
		return nil
	}

	lat := opLatencies{} // per answered op, ms
	deadline := time.Now().Add(cfg.seconds)
	var passMS []float64
	for len(passMS) == 0 || time.Now().Before(deadline) {
		var pass time.Duration
		for _, o := range ops {
			start := time.Now()
			rows, err := o.db.answerUntraced(o.q.text, o.strat)
			d := time.Since(start)
			pass += d
			out := check(rows, err, o.ref)
			res.record(out, o.String()+failure(err))
			if out == opOK {
				lat.add(o.String(), ms(d))
			}
		}
		passMS = append(passMS, ms(pass))
	}
	sum := summarize(lat)
	res.metrics["throughput_qps"] = sum.ThroughputQPS
	res.metrics["latency_geomean_ms"] = sum.GeomeanMS
	res.metrics["latency_slowest_ms"] = sum.SlowestMS
	res.metrics["setup_s"] = median(setupS)
	res.metrics["heap_mb"] = heapMB
	res.metrics["bytes_per_triple"] = float64(indexBytes) / float64(rawTriples)
	res.report["pass_ms"] = passMS
	reportPooled(res, lat)
	return nil
}

// heapInuseMB forces a collection and returns the in-use heap in MiB.
func heapInuseMB() float64 {
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return float64(mem.HeapInuse) / (1 << 20)
}

// check compares an answer with its reference digest.
func check(rows [][]rdf.Term, err error, ref answerDigest) outcome {
	if err != nil {
		return opError
	}
	if termDigest(rows) != ref {
		return opWrong
	}
	return opOK
}

func failure(err error) string {
	if err == nil {
		return ": wrong answer"
	}
	return ": " + err.Error()
}

// tracedLibrary is the traced run of a library workload. Even passes
// run the decomposed, traced path; odd passes run the untraced one, for
// the overhead comparison.
func tracedLibrary(cfg config, res *runResult, ops []libOp, setupLayers map[string][]float64, dbs []*libDB) {
	type passSums struct {
		self   map[string]time.Duration
		counts map[string]int64
		op     time.Duration // root minus the extra reformulate span
	}
	var traced []passSums
	var untraced []float64 // pass op time, ms
	var parseUS, encodeUS, coverage []float64
	deadline := time.Now().Add(cfg.seconds)
	for pass := 0; pass < 2 || time.Now().Before(deadline); pass++ {
		if pass%2 == 1 {
			var busy time.Duration
			for _, o := range ops {
				start := time.Now()
				rows, err := o.db.answerUntraced(o.q.text, o.strat)
				busy += time.Since(start)
				res.record(check(rows, err, o.ref), o.String()+failure(err))
			}
			untraced = append(untraced, ms(busy))
			continue
		}
		ps := passSums{self: map[string]time.Duration{}, counts: map[string]int64{}}
		for _, o := range ops {
			root := trace.New("op")
			rows, err := o.db.answerTraced(root, o.q.text, o.strat)
			root.End()
			res.record(check(rows, err, o.ref), o.String()+failure(err))
			n := fromSpan(root)
			n.selfTimes(ps.self)
			n.counts(ps.counts)
			ps.op += n.dur - n.child("reformulate")
			parseUS = append(parseUS, float64(n.child("parse"))/float64(time.Microsecond))
			encodeUS = append(encodeUS, float64(n.child("encode"))/float64(time.Microsecond))
			coverage = append(coverage, n.coverage())
		}
		traced = append(traced, ps)
	}

	// perPass takes the median over traced passes of f.
	perPass := func(f func(p passSums) float64) float64 {
		vals := make([]float64, len(traced))
		for i, p := range traced {
			vals[i] = f(p)
		}
		return median(vals)
	}
	ratio := func(num, den func(p passSums) float64) float64 {
		return perPass(func(p passSums) float64 {
			if d := den(p); d > 0 {
				return num(p) / d
			}
			return 0
		})
	}
	selfMS := func(name string) func(p passSums) float64 {
		return func(p passSums) float64 { return ms(p.self[name]) }
	}
	opMS := func(p passSums) float64 { return ms(p.op) }
	countOf := func(key string) func(p passSums) float64 {
		return func(p passSums) float64 { return float64(p.counts[key]) }
	}

	m := res.metrics
	m["sparql.parse_us"] = median(parseUS)
	m["sparql.encode_us"] = median(encodeUS)
	m["core.optimize_ms"] = perPass(selfMS("optimize"))
	m["core.optimize_share"] = ratio(selfMS("optimize"), opMS)
	m["core.covers_explored"] = perPass(countOf("optimize.covers_explored"))
	m["core.covers_per_ms"] = ratio(countOf("optimize.covers_explored"), selfMS("optimize"))
	m["core.total_cqs"] = perPass(countOf("optimize.total_cqs"))
	m["reformulate.ms"] = perPass(selfMS("reformulate"))
	m["reformulate.cqs_per_ms"] = ratio(countOf("reformulate.cqs"), selfMS("reformulate"))
	m["engine.eval_ms"] = perPass(selfMS("evaluate"))
	m["engine.eval_share"] = ratio(selfMS("evaluate"), opMS)
	for _, k := range []string{"tuples_scanned", "rows_joined", "rows_materialized", "rows_deduped", "union_arms", "work"} {
		m["engine."+k] = perPass(countOf("evaluate." + k))
	}
	m["engine.answers_per_ktuple"] = ratio(func(p passSums) float64 { return 1000 * float64(p.counts["evaluate.rows_out"]) }, countOf("evaluate.tuples_scanned"))
	m["engine.dedup_waste"] = ratio(countOf("evaluate.rows_deduped"), func(p passSums) float64 {
		return float64(p.counts["evaluate.rows_deduped"] + p.counts["evaluate.rows_out"])
	})
	m["dict.decode_ms"] = perPass(selfMS("decode"))
	m["dict.encode_s"] = median(setupLayers["dict"])
	m["storage.load_s"] = median(setupLayers["load"])
	m["stats.collect_s"] = median(setupLayers["stats"])
	m["cost.calibrate_s"] = median(setupLayers["calibrate"])
	m["saturate.s"] = median(setupLayers["saturate"])
	implicit := 0
	for _, db := range dbs {
		if db.sat != nil {
			implicit += db.sat.Len() - db.raw.Len()
		}
	}
	m["saturate.implicit_triples"] = float64(implicit)
	m["trace.coverage"] = median(coverage)
	m["trace.overhead"] = perPass(opMS)/median(untraced) - 1

	// Counts must repeat exactly from pass to pass; report any spread.
	spread := map[string][2]int64{}
	for key := range traced[0].counts {
		lo, hi := traced[0].counts[key], traced[0].counts[key]
		for _, p := range traced[1:] {
			lo, hi = min(lo, p.counts[key]), max(hi, p.counts[key])
		}
		if lo != hi {
			spread[key] = [2]int64{lo, hi}
		}
	}
	res.report["count_spread"] = spread
	layerMS := map[string]float64{}
	for name := range traced[0].self {
		layerMS[name] = perPass(selfMS(name))
	}
	res.report["self_ms_per_pass"] = layerMS
	res.report["traced_passes"] = len(traced)
	res.report["untraced_passes"] = len(untraced)
	res.report["layers_observed"] = "sparql core reformulate engine dict storage stats cost saturate"
}
