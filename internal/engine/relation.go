package engine

import (
	"repro/internal/dict"
)

// Relation is a materialized set of answer rows. Vars names the columns;
// rows have set semantics (duplicate elimination happens at build time).
type Relation struct {
	Vars []uint32
	Rows [][]dict.ID

	// pos memoizes colIndex. Relations are built by one goroutine and
	// only shared once complete, so the lazy build needs no locking;
	// see colIndex.
	pos map[uint32]int
}

// Arity returns the number of columns.
func (r *Relation) Arity() int { return len(r.Vars) }

// Len returns the number of rows.
func (r *Relation) Len() int { return len(r.Rows) }

// colIndex returns the column position of each variable, built once on
// first use and memoized. Relations are constructed and indexed during
// the single-goroutine join/projection phase of an evaluation (parallel
// workers never call colIndex), so the unsynchronized lazy build is safe.
func (r *Relation) colIndex() map[uint32]int {
	if r.pos == nil {
		r.pos = make(map[uint32]int, len(r.Vars))
		for i, v := range r.Vars {
			r.pos[v] = i
		}
	}
	return r.pos
}

// Each calls f for every row in order, stopping early when f returns
// false. The row passed to f aliases relation storage and must not be
// modified.
func (r *Relation) Each(f func(row []dict.ID) bool) {
	for _, row := range r.Rows {
		if !f(row) {
			return
		}
	}
}

// hashRow mixes a row's packed dict.IDs into a 64-bit hash,
// xxhash-style: one multiply-rotate-multiply round per element and an
// avalanche finish. Deterministic across runs (no per-process seed) so
// set iteration orders — which the deterministic merges rely on — never
// depend on the hash anyway; only probe sequences do.
func hashRow(row []dict.ID) uint64 {
	h := uint64(0x165667B19E3779F9) + uint64(len(row))*8
	for _, v := range row {
		h ^= uint64(v) * 0x9E3779B185EBCA87
		h = (h<<27 | h>>37) * 0xC2B2AE3D27D4EB4F
	}
	h ^= h >> 33
	h *= 0xC2B2AE3D27D4EB4F
	h ^= h >> 29
	return h
}

// hashCols is hashRow over selected columns.
func hashCols(row []dict.ID, cols []int) uint64 {
	h := uint64(0x165667B19E3779F9) + uint64(len(cols))*8
	for _, c := range cols {
		h ^= uint64(row[c]) * 0x9E3779B185EBCA87
		h = (h<<27 | h>>37) * 0xC2B2AE3D27D4EB4F
	}
	h ^= h >> 33
	h *= 0xC2B2AE3D27D4EB4F
	h ^= h >> 29
	return h
}

func rowEq(a, b []dict.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// rowSet is a tombstone-free open-addressing hash set of rows: slots
// hold 1-based indices into the insertion-ordered rows slice, the table
// grows by powers of two at 7/8 load, and equality compares the stored
// rows (no packed string keys, so admission allocates nothing beyond
// the row storage the caller provides). rows doubles as the set's
// first-occurrence-ordered content.
type rowSet struct {
	tbl  []uint32
	rows [][]dict.ID
}

// rowSetMinSlots is the initial table size (power of two).
const rowSetMinSlots = 16

// add inserts row if absent, storing the slice as given, and reports
// whether it was inserted. The caller must pass storage that stays
// valid and unmodified for the set's lifetime.
func (s *rowSet) add(row []dict.ID) bool {
	s.reserve()
	slot, found := s.find(row)
	if found {
		return false
	}
	s.rows = append(s.rows, row)
	s.tbl[slot] = uint32(len(s.rows))
	return true
}

// len returns the number of distinct rows.
func (s *rowSet) len() int { return len(s.rows) }

// reserve grows the table before an insertion would push the load
// factor past 7/8, so a later insertAt never invalidates a found slot.
func (s *rowSet) reserve() {
	if s.tbl == nil {
		s.tbl = make([]uint32, rowSetMinSlots)
		return
	}
	if (len(s.rows)+1)*8 > len(s.tbl)*7 {
		old := s.tbl
		s.tbl = make([]uint32, len(old)*2)
		for _, ref := range old {
			if ref == 0 {
				continue
			}
			mask := uint64(len(s.tbl) - 1)
			i := hashRow(s.rows[ref-1]) & mask
			for s.tbl[i] != 0 {
				i = (i + 1) & mask
			}
			s.tbl[i] = ref
		}
	}
}

// find probes for row, returning the slot it occupies (found) or the
// empty slot it would be inserted into.
func (s *rowSet) find(row []dict.ID) (uint64, bool) {
	mask := uint64(len(s.tbl) - 1)
	i := hashRow(row) & mask
	for {
		ref := s.tbl[i]
		if ref == 0 {
			return i, false
		}
		if rowEq(s.rows[ref-1], row) {
			return i, true
		}
		i = (i + 1) & mask
	}
}

// dedupSet is a streaming duplicate-elimination set with budget checks,
// an open-addressing rowSet over arena-backed rows. A set is used by one
// goroutine at a time; concurrent shards each hold their own set and
// merge deterministically (see evalArmSharded).
type dedupSet struct {
	set rowSet
	ctx *evalCtx
	// arena owns the copies admitted through add; rows stay valid for
	// the set's (and the produced relation's) lifetime.
	arena rowArena
	// hits counts the duplicates this set dropped — the set's share of
	// the context-wide rowsDeduped total, read by trace instrumentation
	// after the owning goroutine is done with the set.
	hits int64
}

func newDedupSet(ctx *evalCtx) *dedupSet {
	return &dedupSet{ctx: ctx}
}

// size returns the number of distinct rows admitted so far.
func (d *dedupSet) size() int { return d.set.len() }

// add admits row, charging one work unit and enforcing the
// materialization budget on the set size. A fresh row is copied into
// the set's arena and the stored copy returned (callers append it to
// their output instead of copying again); a duplicate returns
// fresh=false and row is not retained.
func (d *dedupSet) add(row []dict.ID) (stored []dict.ID, fresh bool, err error) {
	if err := d.ctx.charge(1); err != nil {
		return nil, false, err
	}
	d.set.reserve()
	slot, found := d.set.find(row)
	if found {
		d.hits++
		d.ctx.rowsDeduped.Add(1)
		return nil, false, nil
	}
	cp := d.arena.copy(row)
	d.set.rows = append(d.set.rows, cp)
	d.set.tbl[slot] = uint32(len(d.set.rows))
	if err := d.ctx.checkRows(d.set.len()); err != nil {
		return nil, false, err
	}
	return cp, true, nil
}

// addOwned is add for rows the caller already owns stable storage for
// (projection outputs): a fresh row is stored as-is, a duplicate left
// to the caller to release.
func (d *dedupSet) addOwned(row []dict.ID) (bool, error) {
	if err := d.ctx.charge(1); err != nil {
		return false, err
	}
	if !d.set.add(row) {
		d.hits++
		d.ctx.rowsDeduped.Add(1)
		return false, nil
	}
	return true, d.ctx.checkRows(d.set.len())
}

// addMerged is addOwned without the work charge: the row was already
// charged by the shard-local set that admitted it, so the deterministic
// merge only restores global set semantics (counting the cross-shard
// duplicates it drops) and enforces the materialization budget on the
// true union size — which shard-local sets, each smaller than the
// union, cannot see. This keeps the accumulated Work and RowsDeduped
// totals of a parallel evaluation identical to the sequential ones.
func (d *dedupSet) addMerged(row []dict.ID) (bool, error) {
	if !d.set.add(row) {
		d.hits++
		d.ctx.rowsDeduped.Add(1)
		return false, nil
	}
	return true, d.ctx.checkRows(d.set.len())
}

// rowArena allocates row copies out of chunked backing arrays, replacing
// the per-row make in the hot emit paths. Rows handed out stay valid for
// the arena's lifetime; only the most recent allocation can be released.
type rowArena struct {
	buf []dict.ID
	// chunks counts the backing arrays allocated, a cheap proxy for the
	// arena's memory footprint reported on trace spans.
	chunks int
}

// arenaChunk is the backing-array size, in dict.ID values.
const arenaChunk = 4096

// alloc returns a zeroed row of n columns.
func (a *rowArena) alloc(n int) []dict.ID {
	if n == 0 {
		return nil
	}
	if len(a.buf)+n > cap(a.buf) {
		size := arenaChunk
		if n > size {
			size = n
		}
		a.buf = make([]dict.ID, 0, size)
		a.chunks++
	}
	start := len(a.buf)
	a.buf = a.buf[:start+n]
	row := a.buf[start : start+n : start+n]
	for i := range row {
		row[i] = 0
	}
	return row
}

// copy returns an arena-backed copy of row.
func (a *rowArena) copy(row []dict.ID) []dict.ID {
	out := a.alloc(len(row))
	copy(out, row)
	return out
}

// release returns the most recent allocation to the arena (a no-op for
// any other slice); duplicate rows dropped right after projection reuse
// their space.
func (a *rowArena) release(row []dict.ID) {
	if n := len(a.buf); len(row) > 0 && n >= len(row) && &a.buf[n-len(row)] == &row[0] {
		a.buf = a.buf[:n-len(row)]
	}
}
