package cover

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/bgp"
	"repro/internal/dblp"
	"repro/internal/dict"
	"repro/internal/lubm"
	"repro/internal/sparql"
)

// benchmarkCQ parses and encodes one named LUBM or DBLP benchmark query
// over a fresh dictionary. The sharing graph depends only on which atoms
// share variables, so the dictionary's codes do not affect enumeration.
func benchmarkCQ(t testing.TB, dataset, name string) bgp.CQ {
	t.Helper()
	var text string
	switch dataset {
	case "lubm":
		for _, s := range lubm.Queries() {
			if s.Name == name {
				text = s.Text
			}
		}
	case "dblp":
		for _, s := range dblp.Queries() {
			if s.Name == name {
				text = s.Text
			}
		}
	}
	if text == "" {
		t.Fatalf("no %s query %s", dataset, name)
	}
	q, err := sparql.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := sparql.Encode(q, dict.New())
	if err != nil {
		t.Fatal(err)
	}
	return enc.CQ
}

// enumerationDigest runs EnumerateMinimal and returns the emitted count,
// the exhaustive flag, and an FNV-64a hash of the emitted sequence (each
// cover as its fragment count followed by its fragments, little-endian).
func enumerationDigest(g *Graph, max int) (count int, exhaustive bool, sum uint64) {
	h := fnv.New64a()
	var buf []byte
	exhaustive = g.EnumerateMinimal(max, func(c Cover) bool {
		count++
		buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(len(c)))
		for _, f := range c {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(f))
		}
		h.Write(buf)
		return true
	})
	return count, exhaustive, h.Sum64()
}

// TestEnumerateGolden pins the exact sequence of covers EnumerateMinimal
// emits on representative benchmark queries. ECov resolves cost ties to
// the earliest-enumerated cover, so the emission order is part of the
// search's observable behaviour, not an implementation detail: any
// change to it can change the chosen cover.
func TestEnumerateGolden(t *testing.T) {
	cases := []struct {
		dataset, name string
		count         int
		exhaustive    bool
		hash          uint64
	}{
		{"lubm", "Q02", 409, true, 0x228c52f840db2a30},
		{"lubm", "Q09", 1732, true, 0x842a2157a09cea62},
		{"lubm", "Q28", 231, true, 0x13ca13307411e5a0},
		{"dblp", "Q10", 100000, false, 0x205f1a1f56a0178d},
	}
	for _, c := range cases {
		t.Run(c.dataset+"/"+c.name, func(t *testing.T) {
			g := mustGraph(benchmarkCQ(t, c.dataset, c.name))
			count, exhaustive, sum := enumerationDigest(g, 100000)
			if count != c.count || exhaustive != c.exhaustive || sum != c.hash {
				t.Errorf("got count=%d exhaustive=%v hash=%#x, want count=%d exhaustive=%v hash=%#x",
					count, exhaustive, sum, c.count, c.exhaustive, c.hash)
			}
		})
	}
}

// BenchmarkEnumerateMinimal measures enumeration alone on DBLP Q10, the
// ten-atom query that stops at the 100,000-cover bound.
func BenchmarkEnumerateMinimal(b *testing.B) {
	g := mustGraph(benchmarkCQ(b, "dblp", "Q10"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.EnumerateMinimal(100000, func(Cover) bool { return true })
	}
}
