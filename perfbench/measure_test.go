package main

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"
)

func TestPercentileLeavesTenSamplesBeyond(t *testing.T) {
	// 1,000 samples 1..1000 in shuffled order: the nearest-rank p99 is
	// the 990th smallest, with ten samples above it.
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(samples), func(i, j int) {
		samples[i], samples[j] = samples[j], samples[i]
	})
	orig := append([]float64(nil), samples...)
	if got := percentile(samples, 99); got != 990 {
		t.Fatalf("p99 = %v, want 990", got)
	}
	if got := beyond(len(samples), 99); got != 10 {
		t.Fatalf("beyond(1000, 99) = %d, want 10", got)
	}
	above := 0
	p99 := percentile(samples, 99)
	for _, s := range samples {
		if s > p99 {
			above++
		}
	}
	if above < 10 {
		t.Fatalf("%d samples above p99, want at least 10", above)
	}
	// With 1,500 samples the p99 still leaves more than ten beyond it;
	// with 500 it does not, and beyond says so.
	if got := beyond(1500, 99); got != 15 {
		t.Fatalf("beyond(1500, 99) = %d, want 15", got)
	}
	if got := beyond(500, 99); got != 5 {
		t.Fatalf("beyond(500, 99) = %d, want 5", got)
	}
	for i := range samples {
		if samples[i] != orig[i] {
			t.Fatal("percentile reordered the caller's slice")
		}
	}
}

func TestPercentileEdges(t *testing.T) {
	if got := percentile(nil, 50); got != 0 {
		t.Fatalf("percentile(nil) = %v, want 0", got)
	}
	s := []float64{5, 1, 3}
	if got := percentile(s, 100); got != 5 {
		t.Fatalf("p100 = %v, want the max 5", got)
	}
	if got := percentile(s, 1); got != 1 {
		t.Fatalf("p1 = %v, want the min 1", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median of an even count = %v, want 2.5", got)
	}
	if got := median(s); got != 3 {
		t.Fatalf("median = %v, want 3", got)
	}
}

func TestSummarizeUsesPerOperationMedians(t *testing.T) {
	lat := opLatencies{}
	// Two operations with medians 2 ms and 8 ms; each has one sample a
	// stall slowed down, which the medians ignore.
	for _, v := range []float64{2, 2, 2, 90} {
		lat.add("a", v)
	}
	for _, v := range []float64{8, 8, 400} {
		lat.add("b", v)
	}
	lat["failed"] = nil // every attempt failed: no median to count
	got := summarize(lat)
	if got.ThroughputQPS != 200 { // two operations per 10 ms
		t.Errorf("throughput = %v, want 200", got.ThroughputQPS)
	}
	if math.Abs(got.GeomeanMS-4) > 1e-12 {
		t.Errorf("geomean = %v, want 4", got.GeomeanMS)
	}
	if got.SlowestMS != 8 {
		t.Errorf("slowest = %v, want 8", got.SlowestMS)
	}
	if len(lat.pooled()) != 7 {
		t.Errorf("pooled %d samples, want 7", len(lat.pooled()))
	}
	if (summarize(opLatencies{}) != cycleSummary{}) {
		t.Error("summary of no samples must be zero")
	}
}

func TestSelfTimeOfNestedSpans(t *testing.T) {
	// op 100ms
	//   optimize 60ms
	//     price 50ms
	//   evaluate 30ms
	//     scan 10ms
	//     join 15ms
	tree := node{name: "op", dur: 100 * time.Millisecond, kids: []node{
		{name: "optimize", dur: 60 * time.Millisecond, ints: map[string]int64{"covers": 7}, kids: []node{
			{name: "price", dur: 50 * time.Millisecond},
		}},
		{name: "evaluate", dur: 30 * time.Millisecond, ints: map[string]int64{"rows": 3}, kids: []node{
			{name: "scan", dur: 10 * time.Millisecond, ints: map[string]int64{"rows": 40}},
			{name: "join", dur: 15 * time.Millisecond},
		}},
	}}
	self := map[string]time.Duration{}
	tree.selfTimes(self)
	want := map[string]time.Duration{
		"op":       10 * time.Millisecond,
		"optimize": 10 * time.Millisecond,
		"price":    50 * time.Millisecond,
		"evaluate": 5 * time.Millisecond,
		"scan":     10 * time.Millisecond,
		"join":     15 * time.Millisecond,
	}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self(%s) = %v, want %v", name, self[name], d)
		}
	}
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	if sum != tree.dur {
		t.Errorf("self times add up to %v, want the root's %v", sum, tree.dur)
	}
	if got := tree.coverage(); got != 0.9 {
		t.Errorf("coverage = %v, want 0.9", got)
	}
	if got := tree.child("evaluate"); got != 30*time.Millisecond {
		t.Errorf("child(evaluate) = %v, want 30ms", got)
	}
	counts := map[string]int64{}
	tree.counts(counts)
	if counts["optimize.covers"] != 7 || counts["evaluate.rows"] != 3 || counts["scan.rows"] != 40 {
		t.Errorf("counts = %v", counts)
	}

	// Children reported longer than their parent (clock granularity)
	// give zero self time, never negative.
	skewed := node{name: "a", dur: time.Millisecond, kids: []node{{name: "b", dur: 2 * time.Millisecond}}}
	if got := skewed.self(); got != 0 {
		t.Errorf("skewed self = %v, want 0", got)
	}
}

func TestAnswerDigestIgnoresRowOrder(t *testing.T) {
	rows := [][]string{
		{"<http://e.org/a>", `"x"`},
		{"<http://e.org/b>", `"y"`},
		{"<http://e.org/c>", `"z"`},
		{"<http://e.org/d>", `"x"`},
	}
	ref := digestOf(rows)
	perm := [][]string{rows[2], rows[0], rows[3], rows[1]}
	if got := digestOf(perm); got != ref {
		t.Fatalf("permuted digest %v != %v", got, ref)
	}

	changed := [][]string{rows[0], rows[1], {"<http://e.org/c>", `"w"`}, rows[3]}
	if got := digestOf(changed); got == ref {
		t.Fatal("changing one row left the digest unchanged")
	}
	// Moving a value between the columns of a row changes the digest.
	swapped := [][]string{rows[0], rows[1], {`"z"`, "<http://e.org/c>"}, rows[3]}
	if got := digestOf(swapped); got == ref {
		t.Fatal("swapping two columns left the digest unchanged")
	}
	// So does splitting a value differently across columns.
	if digestOf([][]string{{"ab", "c"}}) == digestOf([][]string{{"a", "bc"}}) {
		t.Fatal("column boundaries are not part of the digest")
	}
	// Dropping a row changes the count.
	if got := digestOf(rows[:3]); got.Rows != 3 || got == ref {
		t.Fatalf("dropped row: digest %v", got)
	}
}

func TestErrorRateCountsEveryFailure(t *testing.T) {
	var log opLog
	for _, c := range []struct {
		status  int
		err     error
		matches bool
	}{
		{200, nil, true},
		{200, nil, true},
		{429, nil, true},                // refused
		{503, nil, true},                // failed
		{0, errors.New("reset"), false}, // failed in transport
		{200, nil, false},               // wrong answer
		{200, nil, true},
		{413, nil, false}, // failed; the answer is never compared
	} {
		log.record(httpOutcome(c.status, c.err, c.matches), "op")
	}
	want := tally{Attempted: 8, Refused: 1, Errors: 3, Wrong: 1}
	if log.tally != want {
		t.Fatalf("tally = %+v, want %+v", log.tally, want)
	}
	if got := log.tally.ErrorRate(); got != 5.0/8 {
		t.Fatalf("error rate = %v, want 5/8", got)
	}
	if len(log.reasons) != 5 {
		t.Fatalf("%d reasons kept, want one per failure", len(log.reasons))
	}

	var total opLog
	total.merge(log)
	total.record(opOK, "")
	if total.tally.Attempted != 9 || total.tally.Failed() != 5 {
		t.Fatalf("merged tally = %+v", total.tally)
	}
	if (tally{}).ErrorRate() != 0 {
		t.Fatal("error rate of nothing attempted must be 0")
	}
}

// TestBenchmarkFileMatchesMetrics keeps BENCHMARK.json and the metrics
// the program prints in step.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the program %s", i, spec.Workloads[i].Name, w.name)
		}
	}
}
