// Benchjson converts `go test -bench` output into a small JSON report:
// one entry per benchmark (name, ns/op, B/op, allocs/op, plus any custom
// b.ReportMetric units such as hit-rate) and runner metadata (go version,
// GOMAXPROCS, CPU count). scripts/bench.sh uses it
// to write the committed BENCH_<date>.json files; the metadata matters
// because the parallel benchmarks only separate from their serial
// baselines on a multi-core runner.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

type result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// Extra holds custom b.ReportMetric units (e.g. the plan-cache
	// benchmark's "hit-rate") keyed by unit name.
	Extra map[string]float64 `json:"extra,omitempty"`
}

type report struct {
	Go         string   `json:"go"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	CPUs       int      `json:"cpus"`
	Scale      string   `json:"scale,omitempty"`
	Benchmarks []result `json:"benchmarks"`
	// Stages embeds the traced per-stage breakdown produced by
	// `benchall -stagejson` (see -stages), verbatim.
	Stages json.RawMessage `json:"stages,omitempty"`
	// Load embeds the bulk-load scale sweep produced by
	// `benchall -loadjson` (see -load), verbatim.
	Load json.RawMessage `json:"load,omitempty"`
	// Serve embeds the HTTP serve throughput sweep produced by
	// `benchall -servejson` (see -serve), verbatim.
	Serve json.RawMessage `json:"serve,omitempty"`
	// Feedback embeds the adaptive-cost warm-up sweep produced by
	// `benchall -feedbackjson` (see -feedback), verbatim.
	Feedback json.RawMessage `json:"feedback,omitempty"`
}

func main() {
	in := flag.String("in", "", "benchmark output to parse (default stdin)")
	out := flag.String("out", "", "JSON file to write (default stdout)")
	stages := flag.String("stages", "", "stage-breakdown JSON file (from benchall -stagejson) to embed")
	load := flag.String("load", "", "bulk-load sweep JSON file (from benchall -loadjson) to embed")
	serve := flag.String("serve", "", "serve throughput JSON file (from benchall -servejson) to embed")
	fbPath := flag.String("feedback", "", "feedback warm-up sweep JSON file (from benchall -feedbackjson) to embed")
	flag.Parse()

	src := os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
		src = f
	}

	rep := report{
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUs:       runtime.NumCPU(),
		Scale:      os.Getenv("REPRO_BENCH_SCALE"),
		Benchmarks: []result{},
	}
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if r, ok := parseLine(sc.Text()); ok {
			rep.Benchmarks = append(rep.Benchmarks, r)
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}

	if *stages != "" {
		raw, err := os.ReadFile(*stages)
		if err != nil {
			fatal(err)
		}
		if !json.Valid(raw) {
			fatal(fmt.Errorf("%s: not valid JSON", *stages))
		}
		rep.Stages = json.RawMessage(raw)
	}

	if *load != "" {
		raw, err := os.ReadFile(*load)
		if err != nil {
			fatal(err)
		}
		if !json.Valid(raw) {
			fatal(fmt.Errorf("%s: not valid JSON", *load))
		}
		rep.Load = json.RawMessage(raw)
	}

	if *serve != "" {
		raw, err := os.ReadFile(*serve)
		if err != nil {
			fatal(err)
		}
		if !json.Valid(raw) {
			fatal(fmt.Errorf("%s: not valid JSON", *serve))
		}
		rep.Serve = json.RawMessage(raw)
	}

	if *fbPath != "" {
		raw, err := os.ReadFile(*fbPath)
		if err != nil {
			fatal(err)
		}
		if !json.Valid(raw) {
			fatal(fmt.Errorf("%s: not valid JSON", *fbPath))
		}
		rep.Feedback = json.RawMessage(raw)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		if _, err := os.Stdout.Write(data); err != nil {
			fatal(err)
		}
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
}

// parseLine parses one `go test -bench` result line:
//
//	BenchmarkName-8   123   456.7 ns/op   89 B/op   10 allocs/op
func parseLine(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r := result{Name: fields[0], Iterations: iters}
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
			seen = true
		case "B/op":
			r.BytesPerOp = int64(v)
		case "allocs/op":
			r.AllocsPerOp = int64(v)
		default:
			if r.Extra == nil {
				r.Extra = make(map[string]float64)
			}
			r.Extra[fields[i+1]] = v
		}
	}
	return r, seen
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
