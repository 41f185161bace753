package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/trace"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// samples: the smallest sample with at least p% of the samples at or
// below it. samples need not be sorted; 0 for no samples.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond returns how many of n samples lie above the p-th percentile's
// rank — the guide's condition for reporting that percentile is ten.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// median is the 50th percentile, averaging the two middle samples of an
// even count.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// opLatencies holds the latency samples of every operation of a cycle
// (a library pass, or one round of the served queries), in ms, keyed by
// the operation.
type opLatencies map[string][]float64

func (l opLatencies) add(op string, ms float64) { l[op] = append(l[op], ms) }

// cycleSummary is the end-to-end view of a run built from each
// operation's median latency. A median per operation ignores the
// minority of samples a stall of the shared host slows down, which move
// a mean or a high percentile of the pooled samples by more than the
// program's own changes do.
type cycleSummary struct {
	ThroughputQPS float64 // operations per cycle ÷ the sum of their medians
	GeomeanMS     float64 // geometric mean of the medians
	SlowestMS     float64 // the largest median
}

// summarize reduces per-operation samples to a cycleSummary; operations
// without samples (every attempt failed) are left out.
func summarize(l opLatencies) cycleSummary {
	var n int
	var sum, logSum, slowest float64
	for _, samples := range l {
		if len(samples) == 0 {
			continue
		}
		m := median(samples)
		n++
		sum += m
		logSum += math.Log(m)
		slowest = math.Max(slowest, m)
	}
	if n == 0 || sum <= 0 {
		return cycleSummary{}
	}
	return cycleSummary{
		ThroughputQPS: float64(n) / (sum / 1000),
		GeomeanMS:     math.Exp(logSum / float64(n)),
		SlowestMS:     slowest,
	}
}

// pooled returns every sample of l in one slice, for the pooled
// percentiles the report records.
func (l opLatencies) pooled() []float64 {
	var all []float64
	for _, s := range l {
		all = append(all, s...)
	}
	return all
}

// answerDigest is an order-independent fingerprint of an answer set: its
// row count and the wrapping sum of a mixed hash of every row. Rows are
// compared through their terms' canonical N-Triples spellings, so
// digests from different dictionaries (or from the server's JSON) agree.
type answerDigest struct {
	Rows int
	Sum  uint64
}

// add folds one row into the digest.
func (d *answerDigest) add(row []string) {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for _, term := range row {
		for i := 0; i < len(term); i++ {
			h = (h ^ uint64(term[i])) * fnvPrime
		}
		h *= fnvPrime // a zero separator byte: ("ab","c") and ("a","bc") differ
	}
	d.Rows++
	d.Sum += mix(h)
}

// mix is the splitmix64 finalizer, so that summing row hashes does not
// let structured differences cancel out.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// digestOf fingerprints a slice of rows.
func digestOf(rows [][]string) answerDigest {
	var d answerDigest
	for _, r := range rows {
		d.add(r)
	}
	return d
}

// tally counts operations and their failures. Every kind of failure —
// a refused request (429), an error or non-200 response, a wrong answer
// — counts once against the attempts.
type tally struct {
	Attempted int `json:"attempted"`
	Refused   int `json:"refused"`
	Errors    int `json:"errors"`
	Wrong     int `json:"wrong"`
}

// outcome classifies one finished operation.
type outcome int

const (
	opOK outcome = iota
	opRefused
	opError
	opWrong
)

// record adds one operation's outcome.
func (t *tally) record(o outcome) {
	t.Attempted++
	switch o {
	case opRefused:
		t.Refused++
	case opError:
		t.Errors++
	case opWrong:
		t.Wrong++
	}
}

// Failed is the number of attempts that did not produce a correct answer.
func (t tally) Failed() int { return t.Refused + t.Errors + t.Wrong }

// ErrorRate is Failed / Attempted (0 when nothing was attempted).
func (t tally) ErrorRate() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Failed()) / float64(t.Attempted)
}

// maxReasons bounds the failure reasons an opLog keeps.
const maxReasons = 20

// opLog is a tally plus the first few failure reasons, for the report.
type opLog struct {
	tally   tally
	reasons []string
}

// record counts one operation; a failed one keeps its reason.
func (l *opLog) record(o outcome, reason string) {
	l.tally.record(o)
	if o != opOK && len(l.reasons) < maxReasons {
		l.reasons = append(l.reasons, reason)
	}
}

// merge adds another log's counts and reasons.
func (l *opLog) merge(o opLog) {
	l.tally.Attempted += o.tally.Attempted
	l.tally.Refused += o.tally.Refused
	l.tally.Errors += o.tally.Errors
	l.tally.Wrong += o.tally.Wrong
	for _, r := range o.reasons {
		if len(l.reasons) < maxReasons {
			l.reasons = append(l.reasons, r)
		}
	}
}

// httpOutcome classifies an HTTP operation: a transport error or non-200
// status is an error, 429 a refusal, and a 200 whose answer does not
// match the reference a wrong answer.
func httpOutcome(status int, err error, matches bool) outcome {
	switch {
	case err != nil:
		return opError
	case status == 429:
		return opRefused
	case status != 200:
		return opError
	case !matches:
		return opWrong
	}
	return opOK
}

// node is a finished span reduced to what the layer arithmetic needs.
type node struct {
	name string
	dur  time.Duration
	ints map[string]int64
	kids []node
}

// fromSpan copies an ended trace span tree into nodes.
func fromSpan(sp *trace.Span) node {
	n := node{name: sp.Name(), dur: sp.Duration()}
	for _, a := range sp.Attrs() {
		if !a.IsStr && !a.IsFloat {
			if n.ints == nil {
				n.ints = make(map[string]int64)
			}
			n.ints[a.Key] = a.Int
		}
	}
	for _, c := range sp.Children() {
		n.kids = append(n.kids, fromSpan(c))
	}
	return n
}

// self is a span's duration minus the time its children cover. The
// benchmark's spans are sequential, so the children's durations add up;
// clock skew cannot make self time negative.
func (n node) self() time.Duration {
	d := n.dur
	for _, k := range n.kids {
		d -= k.dur
	}
	if d < 0 {
		return 0
	}
	return d
}

// selfTimes adds the self time of every span in the tree to acc, keyed
// by span name.
func (n node) selfTimes(acc map[string]time.Duration) {
	acc[n.name] += n.self()
	for _, k := range n.kids {
		k.selfTimes(acc)
	}
}

// counts adds every numeric attribute in the tree to acc, keyed by
// "span.attr".
func (n node) counts(acc map[string]int64) {
	for k, v := range n.ints {
		acc[n.name+"."+k] += v
	}
	for _, k := range n.kids {
		k.counts(acc)
	}
}

// child returns the duration of the named direct child (0 if absent).
func (n node) child(name string) time.Duration {
	var d time.Duration
	for _, k := range n.kids {
		if k.name == name {
			d += k.dur
		}
	}
	return d
}

// coverage is the share of the span's wall time its children cover.
func (n node) coverage() float64 {
	if n.dur <= 0 {
		return 0
	}
	return 1 - float64(n.self())/float64(n.dur)
}
