package dataframe

import (
	"math"
	"sync"
)

// This file holds the integer key kernels behind index lookup, group-by
// partitioning, joins, and pivoting. Instead of rendering every row key
// to a canonical string (EncodeKey) and hashing it, each key column is
// reduced to dense per-row uint32 codes — free for dictionary-encoded
// string columns, one integer map op per row otherwise — and multi-level
// keys are folded level by level into dense uint32 key ids. Grouping then
// degenerates to a counting sort over ids, with no per-row allocation;
// scratch maps and slices are pooled across calls.

// nullCode is the reserved per-column code for null cells. Nulls of any
// kind share it, matching EncodeKey's kind-blind 'n' encoding.
const nullCode uint32 = 0

// absentID marks "value never seen" in dense-remap tables.
const absentID = ^uint32(0)

// ---- pooled scratch ----------------------------------------------------

var u32SlicePool = sync.Pool{New: func() any { return new([]uint32) }}

// getU32 returns a length-n uint32 slice with arbitrary contents.
func getU32(n int) []uint32 {
	p := u32SlicePool.Get().(*[]uint32)
	if cap(*p) < n {
		*p = make([]uint32, n)
	}
	return (*p)[:n]
}

func putU32(s []uint32) {
	u32SlicePool.Put(&s)
}

var keyMapPool = sync.Pool{New: func() any { return make(map[uint64]uint32) }}

func getKeyMap() map[uint64]uint32 {
	return keyMapPool.Get().(map[uint64]uint32)
}

func putKeyMap(m map[uint64]uint32) {
	clear(m)
	keyMapPool.Put(m)
}

// ---- per-column coding -------------------------------------------------

// coded is one column reduced to per-row integer codes: nullCode for null
// cells, values in [1, space] otherwise. find maps a query Value to its
// code; value is the representative Value of a code (both may be nil when
// the producing path does not need them).
type coded struct {
	codes []uint32
	space uint32 // codes lie in [0, space]
	find  func(Value) (uint32, bool)
	value func(code uint32) Value

	pooledCodes bool
	scratch     map[uint64]uint32 // pooled encode map (nil for dict/bool paths)
}

// release returns pooled scratch. The find/value closures must not be
// used afterwards.
func (c *coded) release() {
	if c.pooledCodes {
		putU32(c.codes)
		c.codes = nil
	}
	if c.scratch != nil {
		putKeyMap(c.scratch)
		c.scratch = nil
	}
}

// encodeSeries reduces a series to per-row codes. retain=false uses
// pooled scratch reclaimed by release(); retain=true allocates fresh
// storage so the coded view (and its closures) can outlive the call.
func encodeSeriesOpt(s *Series, retain bool) coded {
	n := s.Len()
	switch s.kind {
	case String:
		// Dictionary-encoded already: shift by one to reserve nullCode.
		dict := s.dict
		codes := getU32(n)
		pooled := true
		if retain {
			codes = make([]uint32, n)
			pooled = false
		}
		for r := 0; r < n; r++ {
			if s.null[r] {
				codes[r] = nullCode
			} else {
				codes[r] = s.sc[r] + 1
			}
		}
		return coded{
			codes:       codes,
			space:       uint32(dict.Len()),
			pooledCodes: pooled,
			find: func(v Value) (uint32, bool) {
				if v.IsNull() {
					return nullCode, true
				}
				if v.Kind() != String {
					return 0, false
				}
				c, ok := dict.Code(v.Str())
				return c + 1, ok
			},
			value: func(code uint32) Value { return Str(dict.Word(code - 1)) },
		}
	case Bool:
		codes := getU32(n)
		pooled := true
		if retain {
			codes = make([]uint32, n)
			pooled = false
		}
		for r := 0; r < n; r++ {
			switch {
			case s.null[r]:
				codes[r] = nullCode
			case s.b[r]:
				codes[r] = 2
			default:
				codes[r] = 1
			}
		}
		return coded{
			codes:       codes,
			space:       2,
			pooledCodes: pooled,
			find: func(v Value) (uint32, bool) {
				if v.IsNull() {
					return nullCode, true
				}
				if v.Kind() != Bool {
					return 0, false
				}
				if v.Bool() {
					return 2, true
				}
				return 1, true
			},
			value: func(code uint32) Value { return BoolVal(code == 2) },
		}
	}

	// Numeric kinds: intern raw 64-bit payloads through a map, assigning
	// dense codes in first-appearance order.
	var m map[uint64]uint32
	pooledMap := !retain
	if retain {
		m = make(map[uint64]uint32, n)
	} else {
		m = getKeyMap()
	}
	codes := getU32(n)
	pooled := true
	if retain {
		codes = make([]uint32, n)
		pooled = false
	}
	var vals []Value
	next := uint32(1)
	intern := func(raw uint64, v Value) uint32 {
		c, ok := m[raw]
		if !ok {
			c = next
			next++
			m[raw] = c
			vals = append(vals, v)
		}
		return c
	}
	switch s.kind {
	case Float:
		for r := 0; r < n; r++ {
			if s.null[r] || math.IsNaN(s.f[r]) {
				codes[r] = nullCode
				continue
			}
			codes[r] = intern(math.Float64bits(s.f[r]), Float64(s.f[r]))
		}
	case Int:
		for r := 0; r < n; r++ {
			if s.null[r] {
				codes[r] = nullCode
				continue
			}
			codes[r] = intern(uint64(s.i[r]), Int64(s.i[r]))
		}
	}
	kind := s.kind
	c := coded{
		codes:       codes,
		space:       next - 1,
		pooledCodes: pooled,
		find: func(v Value) (uint32, bool) {
			if v.IsNull() {
				return nullCode, true
			}
			if v.Kind() != kind {
				return 0, false
			}
			var raw uint64
			if kind == Float {
				raw = math.Float64bits(v.Float())
			} else {
				raw = uint64(v.Int())
			}
			code, ok := m[raw]
			return code, ok
		},
		value: func(code uint32) Value { return vals[code-1] },
	}
	if pooledMap {
		c.scratch = m
	}
	return c
}

func encodeSeries(s *Series) coded { return encodeSeriesOpt(s, false) }

// ---- composite key space ----------------------------------------------

// keySpace folds one or more equal-length key columns into dense per-row
// key ids, assigned in first-appearance order of the composite key — the
// same order a sequential EncodeKey scan produces. A retained keySpace
// additionally keeps the per-level remap tables so point queries
// (Index.Lookup) can map a []Value key to its id without string traffic.
type keySpace struct {
	ids   []uint32 // per-row dense key id
	n     int      // number of distinct ids
	first []int32  // first-appearance row per id

	// Query path; populated only when retained.
	finds []func(Value) (uint32, bool)
	tr0   []uint32            // level-0 code → dense id after level 0
	pairs []map[uint64]uint32 // level l: prevID<<32|code → dense id

	pooledIds bool
	pooledTr0 []uint32 // pooled tr0 to return on release
}

// buildKeySpace computes the key space of cols. With retain=false all
// scratch is pooled and reclaimed by release(); the ids/first fields
// remain valid until then.
func buildKeySpace(cols []*Series, retain bool) *keySpace {
	n := cols[0].Len()
	ks := &keySpace{}
	if retain {
		ks.finds = make([]func(Value) (uint32, bool), len(cols))
	}

	// Level 0: dense remap through a flat table indexed by code.
	c0 := encodeSeriesOpt(cols[0], retain)
	var tr []uint32
	if retain {
		tr = make([]uint32, int(c0.space)+1)
	} else {
		tr = getU32(int(c0.space) + 1)
	}
	for i := range tr {
		tr[i] = absentID
	}
	ids := getU32(n)
	ks.pooledIds = true
	if retain {
		ids = make([]uint32, n)
		ks.pooledIds = false
	}
	next := uint32(0)
	var first []int32
	for r := 0; r < n; r++ {
		c := c0.codes[r]
		d := tr[c]
		if d == absentID {
			d = next
			next++
			tr[c] = d
			first = append(first, int32(r))
		}
		ids[r] = d
	}
	if retain {
		ks.finds[0] = c0.find
		ks.tr0 = tr
	} else {
		ks.pooledTr0 = tr
		c0.release()
	}

	// Levels 1..k-1: fold (prevID, code) pairs through a map.
	for l := 1; l < len(cols); l++ {
		cl := encodeSeriesOpt(cols[l], retain)
		var m map[uint64]uint32
		if retain {
			m = make(map[uint64]uint32, int(next))
		} else {
			m = getKeyMap()
		}
		next = 0
		first = first[:0]
		for r := 0; r < n; r++ {
			raw := uint64(ids[r])<<32 | uint64(cl.codes[r])
			d, ok := m[raw]
			if !ok {
				d = next
				next++
				m[raw] = d
				first = append(first, int32(r))
			}
			ids[r] = d
		}
		if retain {
			ks.finds[l] = cl.find
			ks.pairs = append(ks.pairs, m)
		} else {
			putKeyMap(m)
			cl.release()
		}
	}

	ks.ids = ids
	ks.n = int(next)
	ks.first = first
	return ks
}

// idOf maps a composite key to its dense id; ok=false when any level
// value (or the combination) never appears. Valid only on a retained
// keySpace.
func (ks *keySpace) idOf(key []Value) (uint32, bool) {
	if len(key) != len(ks.finds) {
		return 0, false
	}
	c, ok := ks.finds[0](key[0])
	if !ok || int(c) >= len(ks.tr0) {
		return 0, false
	}
	d := ks.tr0[c]
	if d == absentID {
		return 0, false
	}
	for l := 1; l < len(key); l++ {
		c, ok = ks.finds[l](key[l])
		if !ok {
			return 0, false
		}
		d, ok = ks.pairs[l-1][uint64(d)<<32|uint64(c)]
		if !ok {
			return 0, false
		}
	}
	return d, true
}

// release returns pooled scratch of a non-retained key space.
func (ks *keySpace) release() {
	if ks.pooledIds {
		putU32(ks.ids)
		ks.ids = nil
	}
	if ks.pooledTr0 != nil {
		putU32(ks.pooledTr0)
		ks.pooledTr0 = nil
	}
}

// bucketRows inverts per-row ids into per-id ascending row lists via a
// counting sort over one shared backing array — two passes, no hashing.
func bucketRows(ids []uint32, n int) [][]int {
	counts := make([]int, n)
	for _, id := range ids {
		counts[id]++
	}
	backing := make([]int, len(ids))
	buckets := make([][]int, n)
	off := 0
	for id := 0; id < n; id++ {
		buckets[id] = backing[off : off : off+counts[id]]
		off += counts[id]
	}
	for r, id := range ids {
		buckets[id] = append(buckets[id], r)
	}
	return buckets
}

// translateCodes maps another column's coded view into this find-space:
// tr[code] is the target code of the source code, or absentID when the
// target never saw that value. One find per distinct source value.
func translateCodes(src coded, find func(Value) (uint32, bool)) []uint32 {
	tr := make([]uint32, int(src.space)+1)
	tr[nullCode] = nullCode
	for c := uint32(1); c <= src.space; c++ {
		if tc, ok := find(src.value(c)); ok {
			tr[c] = tc
		} else {
			tr[c] = absentID
		}
	}
	return tr
}

// ---- semi-join and join positions ------------------------------------

// joinCodes maps every probe row into the coded build column's code
// space: the code of the equal build value, or absentID. Equality is
// EncodeKey identity: kinds never equal each other, every null (a NaN
// float included) equals every other null, and −0 differs from +0.
// String probes look up once per distinct word, numbers probe the
// build's intern map once per row; no string traffic, no per-row
// scratch. The result is pooled: putU32 it when done.
func joinCodes(probe, build *Series, bc coded) []uint32 {
	n := probe.Len()
	out := getU32(n)
	// A shared dictionary may have grown since build was coded; words
	// interned later cannot be among its rows.
	code := func(c uint32, ok bool) uint32 {
		if !ok || c > bc.space {
			return absentID
		}
		return c
	}
	switch {
	case probe.kind == String:
		tr := make([]uint32, probe.dict.Len())
		for c := range tr {
			tr[c] = code(bc.find(Str(probe.dict.Word(uint32(c)))))
		}
		for r := 0; r < n; r++ {
			if probe.null[r] {
				out[r] = nullCode
			} else {
				out[r] = tr[probe.sc[r]]
			}
		}
	case probe.kind == build.kind && bc.scratch != nil:
		// Numbers: look the raw payload up in the build's intern map.
		for r := 0; r < n; r++ {
			c, ok := nullCode, true
			switch {
			case probe.null[r]:
			case probe.kind == Int:
				c, ok = bc.scratch[uint64(probe.i[r])]
			case !math.IsNaN(probe.f[r]):
				c, ok = bc.scratch[math.Float64bits(probe.f[r])]
			}
			out[r] = code(c, ok)
		}
	default: // booleans and mismatched kinds
		for r := 0; r < n; r++ {
			out[r] = code(bc.find(probe.At(r)))
		}
	}
	return out
}

// SemiJoin returns, ascending, the positions of probe rows whose value
// equals the value of some build row listed in buildRows — the row
// selection a filter on one table induces on a table that references it
// (metadata rows → performance-data rows). Equality is joinCodes'.
func SemiJoin(probe, build *Series, buildRows []int) []int {
	bc := encodeSeries(build)
	defer bc.release()
	want := make([]bool, int(bc.space)+1)
	for _, r := range buildRows {
		want[bc.codes[r]] = true
	}
	codes := joinCodes(probe, build, bc)
	defer putU32(codes)
	var out []int
	for r, c := range codes {
		if c != absentID && want[c] {
			out = append(out, r)
		}
	}
	return out
}

// JoinPositions returns, for every probe row, the first build row whose
// value equals it (joinCodes' equality), or -1 — the position join from
// performance-data rows to their metadata rows, after which any metadata
// row selection becomes a performance-data selection in one array pass.
func JoinPositions(probe, build *Series) []int32 {
	bc := encodeSeries(build)
	defer bc.release()
	first := make([]int32, int(bc.space)+1)
	for c := range first {
		first[c] = -1
	}
	for r := len(bc.codes) - 1; r >= 0; r-- {
		first[bc.codes[r]] = int32(r)
	}
	codes := joinCodes(probe, build, bc)
	defer putU32(codes)
	out := make([]int32, len(codes))
	for r, c := range codes {
		out[r] = -1
		if c != absentID {
			out[r] = first[c]
		}
	}
	return out
}
