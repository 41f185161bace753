package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/server"
	"repro/internal/sparql"
	"repro/internal/trace"
)

// serveQueries are the selective LUBM queries the serve-rw query client
// cycles through: each answers in a few milliseconds in-process and
// returns tens to hundreds of rows.
var serveQueries = []string{"Q03", "Q04", "Q10", "Q11", "Q12", "Q16", "Q17", "Q20", "Q26", "Q27"}

const (
	updateInterval = 100 * time.Millisecond // 10 updates/s
	compactEvery   = 50                     // every 50th update is a compaction
	noiseTriples   = 16
	serveSetupReps = 7
	removeGrace    = 5 * time.Second // how long past the deadline the update client may try to remove the noise
)

// noiseBody is the N-Triples payload of every add and remove: triples
// under a predicate no benchmark query reads.
var noiseBody = func() []byte {
	var b strings.Builder
	for i := 0; i < noiseTriples; i++ {
		fmt.Fprintf(&b, "<http://perfbench.example.org/noise/s%d> <http://perfbench.example.org/noise#tag> \"n%d\" .\n", i, i)
	}
	return []byte(b.String())
}()

// setupServe loads the triples into a repro.Store and builds a server
// over it with its defaults (gcov, native, shared plan cache, feedback
// on), recording the steps under sp.
func setupServe(ds dataset, sp *trace.Span) (*repro.Store, *server.Server, error) {
	st := repro.NewStore()
	encSp := sp.Child("dict")
	if err := st.AddAll(ds.ontology); err != nil {
		return nil, nil, err
	}
	if err := st.AddAll(ds.data); err != nil {
		return nil, nil, err
	}
	encSp.End()
	loadSp := sp.Child("load")
	st.Freeze()
	loadSp.End()
	newSp := sp.Child("server")
	srv, err := server.New(server.Config{Store: st})
	newSp.End()
	return st, srv, err
}

// httpClient posts to the in-process server over loopback.
type httpClient struct {
	base string
	c    *http.Client
}

func (h httpClient) post(path string, body []byte) (int, []byte, error) {
	resp, err := h.c.Post(h.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, data, err
}

// queryStats is what the query client measured.
type queryStats struct {
	opLog
	lat       opLatencies // round trip of every correct answer by query, ms
	answerMS  []float64   // server-side elapsed_ms
	overhead  []float64   // round trip minus elapsed_ms
	bytes     int64
	rows      int64
	parseUS   []float64
	encodeUS  []float64
	coverage  []float64
	tracedRT  []float64 // round trips of traced requests, ms
	untraceRT []float64 // round trips of untraced requests, ms
}

// updateStats is what the update client measured.
type updateStats struct {
	opLog
	lat     []float64 // completion minus due time, ms
	late    []float64 // send minus due time, ms
	compact []float64 // compaction round trips, ms
	updates int
}

type serveQuery struct {
	name string
	text string
	body []byte
	ref  answerDigest
}

// queryResponse is the part of server.QueryResponse the client reads.
type queryResponse struct {
	Rows      [][]string `json:"rows"`
	ElapsedMS float64    `json:"elapsed_ms"`
}

func runServeRW(cfg config, res *runResult) error {
	ds := lubmDataset(lubmSmall(), cfg.lubmSeed())
	refs, info, err := reference(ds)
	if err != nil {
		return err
	}
	var queries []serveQuery
	for _, name := range serveQueries {
		for _, q := range ds.queries {
			if q.name == name {
				body, err := json.Marshal(server.QueryRequest{Query: q.text})
				if err != nil {
					return err
				}
				queries = append(queries, serveQuery{name: name, text: q.text, body: body, ref: refs[name]})
			}
		}
	}

	var setupS []float64
	setupLayers := map[string][]float64{}
	var st *repro.Store
	var srv *server.Server
	for rep := 0; rep < serveSetupReps; rep++ {
		st, srv = nil, nil
		runtime.GC()
		root := trace.New("setup")
		start := time.Now()
		st, srv, err = setupServe(ds, root)
		if err != nil {
			return err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		root.End()
		acc := map[string]time.Duration{}
		fromSpan(root).selfTimes(acc)
		for name, d := range acc {
			setupLayers[name] = append(setupLayers[name], d.Seconds())
		}
	}
	startTriples := st.NumTriples()
	ds.data = nil // input, not program state: not part of the heap measured below

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	transport := &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true}
	client := httpClient{base: "http://" + ln.Addr().String(), c: &http.Client{Transport: transport}}
	defer func() {
		transport.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			// Shutdown gave up on a connection; close the rest so Serve
			// returns. The benchmark's own result does not depend on it.
			if cerr := hs.Close(); cerr != nil {
				fmt.Fprintf(os.Stderr, "perfbench: closing the server: %v\n", cerr)
			}
		}
		<-served
	}()

	// Warm-up: every query once, untimed, answers checked.
	warm := queryStats{lat: opLatencies{}}
	for _, q := range queries {
		warm.ask(client, q, nil)
	}
	res.merge(warm.opLog)
	heapMB := heapInuseMB()

	// The encoder gives traced requests a client-side encode span over
	// the served store's dictionary.
	encoder := st.NewAnswerer(repro.Native, repro.Options{})
	cache0 := srv.CacheStats()
	deadline := time.Now().Add(cfg.seconds)
	qs := queryStats{lat: opLatencies{}}
	var us updateStats
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; time.Now().Before(deadline); i++ {
			// Trace every other full cycle of the queries, so traced and
			// untraced requests ask the same mix.
			var root *trace.Span
			if cfg.trace && (i/len(queries))%2 == 0 {
				root = trace.New("op")
			}
			qs.askTimed(client, queries[i%len(queries)], root, encoder)
		}
	}()
	go func() {
		defer wg.Done()
		us.run(client, deadline)
	}()
	wg.Wait()
	cache1 := srv.CacheStats()

	res.merge(qs.opLog)
	res.merge(us.opLog)
	if n := st.NumTriples(); n != startTriples {
		res.record(opWrong, fmt.Sprintf("store ends at %d triples, started at %d", n, startTriples))
	}

	res.report["databases"] = []dbInfo{info}
	res.report["ops"] = []string{fmt.Sprintf("LUBM %s x gcov/native over HTTP, 1 closed-loop client", strings.Join(serveQueries, ",")),
		fmt.Sprintf("%d noise triples add/remove at %v per update, every %dth a compaction, 1 open-loop client", noiseTriples, updateInterval, compactEvery)}
	res.report["lubm_seed"] = cfg.lubmSeed()
	res.report["setup_reps"] = serveSetupReps
	res.report["setup_s"] = setupS
	reportPooled(res, qs.lat)
	res.report["updates"] = us.updates
	res.report["update_p50_ms"] = median(us.lat)
	res.report["update_p90_ms"] = percentile(us.lat, 90)
	res.report["update_late_p90_ms"] = percentile(us.late, 90)
	res.report["update_late_max_ms"] = percentile(us.late, 100)
	res.report["compactions"] = len(us.compact)
	hits := cache1.Hits - cache0.Hits
	lookups := cache1.Lookups() - cache0.Lookups()
	hitRate := 0.0
	if lookups > 0 {
		hitRate = float64(hits) / float64(lookups)
	}
	res.report["plancache_hit_rate"] = hitRate

	m := res.metrics
	if !cfg.trace {
		sum := summarize(qs.lat)
		m["throughput_qps"] = sum.ThroughputQPS
		m["latency_geomean_ms"] = sum.GeomeanMS
		m["latency_slowest_ms"] = sum.SlowestMS
		m["setup_s"] = median(setupS)
		m["heap_mb"] = heapMB
		m["bytes_per_triple"] = float64(info.IndexBytes) / float64(info.Raw)
		return nil
	}
	m["sparql.parse_us"] = median(qs.parseUS)
	m["sparql.encode_us"] = median(qs.encodeUS)
	m["dict.encode_s"] = median(setupLayers["dict"])
	m["storage.load_s"] = median(setupLayers["load"])
	m["server.answer_ms"] = median(qs.answerMS)
	m["server.overhead_ms"] = median(qs.overhead)
	if qs.rows > 0 {
		m["server.bytes_per_row"] = float64(qs.bytes) / float64(qs.rows)
	}
	m["server.update_p50_ms"] = median(us.lat)
	m["server.update_p90_ms"] = percentile(us.lat, 90)
	m["server.update_late_p90_ms"] = percentile(us.late, 90)
	m["server.update_late_max_ms"] = percentile(us.late, 100)
	m["plancache.hit_rate"] = hitRate
	m["plancache.invalidations"] = float64(cache1.Invalidations - cache0.Invalidations)
	m["storage.compact_ms"] = median(us.compact)
	m["trace.coverage"] = median(qs.coverage)
	m["trace.overhead"] = median(qs.tracedRT)/median(qs.untraceRT) - 1
	res.report["layers_observed"] = "sparql dict storage server plancache (client side; storage.load_s is Store.Freeze including stats)"
	return nil
}

// ask sends one query and checks the answer, recording the round trip
// as a span under root when root is non-nil. It returns the round trip.
func (s *queryStats) ask(c httpClient, q serveQuery, root *trace.Span) time.Duration {
	sp := root.Child("http")
	start := time.Now()
	status, body, err := c.post("/query", q.body)
	rt := time.Since(start)
	sp.End()

	sp = root.Child("decode")
	var resp queryResponse
	matches := false
	if err == nil && status == http.StatusOK {
		if err = json.Unmarshal(body, &resp); err == nil {
			matches = digestOf(resp.Rows) == q.ref
		}
	}
	sp.End()
	out := httpOutcome(status, err, matches)
	reason := q.name
	switch {
	case err != nil:
		reason += ": " + err.Error()
	case status != http.StatusOK:
		reason += fmt.Sprintf(": status %d: %s", status, body)
	case !matches:
		reason += ": wrong answer"
	}
	s.record(out, reason)
	if out == opOK {
		s.lat.add(q.name, ms(rt))
		s.answerMS = append(s.answerMS, resp.ElapsedMS)
		s.overhead = append(s.overhead, ms(rt)-resp.ElapsedMS)
		s.bytes += int64(len(body))
		s.rows += int64(len(resp.Rows))
	}
	return rt
}

// askTimed is ask for the measured window. A traced request (root
// non-nil) also parses and encodes the query on the client, in spans,
// to attribute those layers' time.
func (s *queryStats) askTimed(c httpClient, q serveQuery, root *trace.Span, enc *repro.Answerer) {
	if root == nil {
		s.untraceRT = append(s.untraceRT, ms(s.ask(c, q, nil)))
		return
	}
	sp := root.Child("parse")
	parsed, err := sparql.Parse(q.text)
	sp.End()
	if err == nil {
		sp = root.Child("encode")
		_, err = enc.EncodeQuery(parsed)
		sp.End()
	}
	if err != nil {
		s.record(opError, q.name+": client-side parse: "+err.Error())
		return
	}
	rt := s.ask(c, q, root)
	root.End()
	n := fromSpan(root)
	s.parseUS = append(s.parseUS, float64(n.child("parse"))/float64(time.Microsecond))
	s.encodeUS = append(s.encodeUS, float64(n.child("encode"))/float64(time.Microsecond))
	s.coverage = append(s.coverage, n.coverage())
	s.tracedRT = append(s.tracedRT, ms(rt))
}

// updateResponse mirrors server.UpdateResponse.
type updateResponse struct {
	Added   int `json:"added"`
	Removed int `json:"removed"`
}

// run is the open-loop update client: update i is due at i × the
// interval after the start, whatever happened to update i−1. It adds and
// removes the noise triples alternately, compacts on every 50th update,
// and keeps going past the deadline until the noise is removed, so the
// store ends where it started.
func (s *updateStats) run(c httpClient, deadline time.Time) {
	start := time.Now()
	present := false
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * updateInterval)
		if !due.Before(deadline) && !present {
			return
		}
		if due.After(deadline.Add(removeGrace)) {
			s.record(opWrong, "noise triples still present after the deadline")
			return
		}
		time.Sleep(time.Until(due))
		sent := time.Now()
		s.late = append(s.late, ms(sent.Sub(due)))
		s.updates++

		if i%compactEvery == compactEvery-1 {
			status, body, err := c.post("/compact", nil)
			s.compact = append(s.compact, ms(time.Since(sent)))
			s.lat = append(s.lat, ms(time.Since(due)))
			s.record(httpOutcome(status, err, true), fmt.Sprintf("compact: status %d %s %v", status, body, err))
			continue
		}
		op := "add"
		if present {
			op = "remove"
		}
		status, body, err := c.post("/update?op="+op, noiseBody)
		s.lat = append(s.lat, ms(time.Since(due)))
		var resp updateResponse
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(body, &resp)
		}
		ok := (op == "add" && resp.Added == noiseTriples) || (op == "remove" && resp.Removed == noiseTriples)
		if ok {
			present = !present
		}
		s.record(httpOutcome(status, err, ok), fmt.Sprintf("%s: status %d %s %v", op, status, body, err))
	}
}
