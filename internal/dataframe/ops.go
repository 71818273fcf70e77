package dataframe

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/parallel"
	"repro/internal/telemetry"
)

// itoa shortens the span-attribute rendering below.
func itoa(n int) string { return strconv.Itoa(n) }

// Row is a lightweight cursor over one frame row, passed to predicates.
type Row struct {
	f   *Frame
	pos int
}

// Pos returns the physical row position.
func (r Row) Pos() int { return r.pos }

// IndexValue returns the row's index value at the named level.
func (r Row) IndexValue(level string) Value {
	lv := r.f.index.LevelByName(level)
	if lv == nil {
		return Null(String)
	}
	return lv.At(r.pos)
}

// Value returns the cell under the named (leaf) column; null if absent or
// ambiguous.
func (r Row) Value(name string) Value {
	col, err := r.f.ColumnByName(name)
	if err != nil {
		return Null(String)
	}
	return col.At(r.pos)
}

// ValueAt returns the cell under the exact column key; null if absent.
func (r Row) ValueAt(key ColKey) Value {
	col, err := r.f.Column(key)
	if err != nil {
		return Null(String)
	}
	return col.At(r.pos)
}

// Each visits every row in order with a cursor.
func (f *Frame) Each(visit func(Row)) {
	for i := 0; i < f.NRows(); i++ {
		visit(Row{f: f, pos: i})
	}
}

// Filter returns a new frame with the rows for which pred is true.
func (f *Frame) Filter(pred func(Row) bool) *Frame {
	var rows []int
	for i := 0; i < f.NRows(); i++ {
		if pred(Row{f: f, pos: i}) {
			rows = append(rows, i)
		}
	}
	return f.SelectRows(rows)
}

// FilterRows returns a new frame keeping rows whose position satisfies
// keep (positions outside range are ignored).
func (f *Frame) FilterRows(keep []int) *Frame {
	var rows []int
	for _, r := range keep {
		if r >= 0 && r < f.NRows() {
			rows = append(rows, r)
		}
	}
	return f.SelectRows(rows)
}

// seriesByName resolves a name to a data column (by leaf label) or, when
// no column matches, to a row-index level. Group-by and sort accept both,
// matching pandas' level-aware semantics.
func (f *Frame) seriesByName(name string) (*Series, error) {
	if s, err := f.ColumnByName(name); err == nil {
		return s, nil
	} else if lv := f.index.LevelByName(name); lv != nil {
		return lv, nil
	} else {
		return nil, err
	}
}

// SortByColumns returns a new frame stably sorted by the given leaf column
// names (or index level names) in order, ascending.
func (f *Frame) SortByColumns(names ...string) (*Frame, error) {
	cols := make([]*Series, len(names))
	for i, n := range names {
		c, err := f.seriesByName(n)
		if err != nil {
			return nil, err
		}
		cols[i] = c
	}
	rows := make([]int, f.NRows())
	for i := range rows {
		rows[i] = i
	}
	sort.SliceStable(rows, func(a, b int) bool {
		for _, c := range cols {
			if cmp := c.At(rows[a]).Compare(c.At(rows[b])); cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	return f.SelectRows(rows), nil
}

// Group is one group-by partition: the key values and the member rows.
type Group struct {
	Key   []Value
	Frame *Frame
}

// partitionByKey groups rows [0, NRows) by the composite key over cols
// through the dense-key-id kernel: per-row integer codes fold into key
// ids assigned in first-appearance order, and a counting sort inverts
// them into per-id ascending row lists — no per-row string encoding or
// allocation, and bit-identical to the sequential EncodeKey scan it
// replaces.
func (f *Frame) partitionByKey(cols []*Series) (buckets [][]int, keys [][]Value) {
	ks := buildKeySpace(cols, false)
	buckets = bucketRows(ks.ids, ks.n)
	keys = make([][]Value, ks.n)
	for id, r := range ks.first {
		key := make([]Value, len(cols))
		for i, c := range cols {
			key[i] = c.At(int(r))
		}
		keys[id] = key
	}
	ks.release()
	return buckets, keys
}

// materializeGroups builds the per-group sub-frames (in parallel; each
// group writes only its own slot).
func (f *Frame) materializeGroups(buckets [][]int, keys [][]Value) []Group {
	groups := make([]Group, len(keys))
	parallel.For(len(keys), func(i int) {
		groups[i] = Group{Key: keys[i], Frame: f.SelectRows(buckets[i])}
	})
	return groups
}

// GroupBy partitions the frame by unique combinations of values in the
// named leaf columns (or index levels), returning groups ordered by key.
// This implements the mechanism behind thicket.GroupBy (paper §4.1.2,
// Figure 7).
func (f *Frame) GroupBy(names ...string) ([]Group, error) {
	keys, rows, err := f.GroupRows(names...)
	if err != nil {
		return nil, err
	}
	return f.materializeGroups(rows, keys), nil
}

// GroupRows is GroupBy without the per-group frames: the group keys,
// ordered by key, and each group's ascending row positions.
func (f *Frame) GroupRows(names ...string) (keys [][]Value, rows [][]int, err error) {
	sp := telemetry.StartOp("dataframe.GroupBy")
	if sp != nil {
		sp.SetAttr("rows", itoa(f.NRows()))
		sp.SetAttr("keys", itoa(len(names)))
		defer sp.End()
	}
	cols := make([]*Series, len(names))
	for i, n := range names {
		c, err := f.seriesByName(n)
		if err != nil {
			return nil, nil, err
		}
		cols[i] = c
	}
	buckets, bucketKeys := f.partitionByKey(cols)
	order := make([]int, len(bucketKeys))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return CompareKeys(bucketKeys[order[a]], bucketKeys[order[b]]) < 0
	})
	keys = make([][]Value, len(order))
	rows = make([][]int, len(order))
	for i, id := range order {
		keys[i], rows[i] = bucketKeys[id], buckets[id]
	}
	return keys, rows, nil
}

// GroupByIndexLevel partitions rows by unique values of one index level,
// preserving first-appearance key order. Used for per-node order
// reduction.
func (f *Frame) GroupByIndexLevel(level string) ([]Group, error) {
	sp := telemetry.StartOp("dataframe.GroupByIndexLevel")
	if sp != nil {
		sp.SetAttr("rows", itoa(f.NRows()))
		sp.SetAttr("level", level)
		defer sp.End()
	}
	lv := f.index.LevelByName(level)
	if lv == nil {
		return nil, fmt.Errorf("dataframe: no index level %q", level)
	}
	buckets, keys := f.partitionByKey([]*Series{lv})
	return f.materializeGroups(buckets, keys), nil
}

// ConcatRows vertically concatenates frames with identical column keys and
// index level names, returning a new frame. Columns append in bulk —
// string columns reconcile dictionaries once per distinct word, not once
// per row.
func ConcatRows(frames ...*Frame) (*Frame, error) {
	if len(frames) == 0 {
		return nil, fmt.Errorf("dataframe: ConcatRows requires at least one frame")
	}
	first := frames[0]
	if len(frames) == 1 {
		// Degenerate concat: a bare copy, too cheap to be worth a span.
		return first.Copy(), nil
	}
	// Validate shapes before opening the span so error paths stay
	// span-free and the timed region is the actual append work.
	for _, f := range frames[1:] {
		if f.NCols() != first.NCols() {
			return nil, fmt.Errorf("dataframe: ConcatRows column count mismatch: %d vs %d", f.NCols(), first.NCols())
		}
		for c := 0; c < f.NCols(); c++ {
			if !f.cols.Key(c).Equal(first.cols.Key(c)) {
				return nil, fmt.Errorf("dataframe: ConcatRows column key mismatch at %d: %v vs %v", c, f.cols.Key(c), first.cols.Key(c))
			}
		}
		if f.index.NLevels() != first.index.NLevels() {
			return nil, fmt.Errorf("dataframe: ConcatRows index level mismatch")
		}
	}
	sp := telemetry.StartOp("dataframe.ConcatRows")
	if sp != nil {
		sp.SetAttr("frames", itoa(len(frames)))
		defer sp.End()
	}
	out := first.Copy()
	for _, f := range frames[1:] {
		if err := out.index.AppendIndex(f.index); err != nil {
			return nil, err
		}
		for c := 0; c < f.NCols(); c++ {
			if err := out.data[c].AppendSeries(f.data[c]); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// baseSpaceIDs maps every row of ix into the retained key space ks (built
// over an equal-shaped index of another frame): per level, the row's code
// translates into the base frame's code space through a per-distinct-value
// table, then folds through the base remap tables. Rows whose key the
// base never saw get absentID.
func baseSpaceIDs(ks *keySpace, ix *Index) []uint32 {
	n := ix.NRows()
	ids := getU32(n)
	for l := 0; l < ix.NLevels(); l++ {
		oc := encodeSeries(ix.Level(l))
		tr := translateCodes(oc, ks.finds[l])
		if l == 0 {
			for r := 0; r < n; r++ {
				bc := tr[oc.codes[r]]
				if bc == absentID || int(bc) >= len(ks.tr0) {
					ids[r] = absentID
					continue
				}
				ids[r] = ks.tr0[bc]
			}
		} else {
			m := ks.pairs[l-1]
			for r := 0; r < n; r++ {
				if ids[r] == absentID {
					continue
				}
				bc := tr[oc.codes[r]]
				if bc == absentID {
					ids[r] = absentID
					continue
				}
				d, ok := m[uint64(ids[r])<<32|uint64(bc)]
				if !ok {
					ids[r] = absentID
					continue
				}
				ids[r] = d
			}
		}
		oc.release()
	}
	return ids
}

// InnerJoinOnIndex joins frames on their full composite row index,
// keeping only keys present in every frame (the intersection the paper
// uses for hierarchical composition, §3.2.2). Each input's columns are
// nested under the corresponding group label, adding one column-index
// level. Duplicate index keys within an input are an error.
//
// Matching runs entirely on integer key ids: the first frame's retained
// key space is the reference, and every other frame's rows translate
// into it with one table lookup per row per level.
func InnerJoinOnIndex(groups []string, frames []*Frame) (*Frame, error) {
	if len(groups) != len(frames) {
		return nil, fmt.Errorf("dataframe: %d group labels for %d frames", len(groups), len(frames))
	}
	if len(frames) < 2 {
		return nil, fmt.Errorf("dataframe: InnerJoinOnIndex requires at least two frames")
	}
	sp := telemetry.StartOp("dataframe.InnerJoinOnIndex")
	if sp != nil {
		sp.SetAttr("frames", itoa(len(frames)))
		sp.SetAttr("rows", itoa(frames[0].NRows()))
		defer sp.End()
	}
	base := frames[0]
	for i, f := range frames {
		if f.index.NLevels() != base.index.NLevels() {
			return nil, fmt.Errorf("dataframe: frame %d has %d index levels, want %d", i, f.index.NLevels(), base.index.NLevels())
		}
		if f.index.HasDuplicates() {
			return nil, fmt.Errorf("dataframe: frame %d (%q) has duplicate index keys; cannot join", i, groups[i])
		}
	}

	baseLk := base.index.buildLookup()
	baseKs := baseLk.ks

	// Per non-base frame: base key id → that frame's row (-1 = absent).
	rowOf := make([][]int32, len(frames))
	for i := 1; i < len(frames); i++ {
		m := make([]int32, baseKs.n)
		for j := range m {
			m[j] = -1
		}
		ids := baseSpaceIDs(baseKs, frames[i].index)
		for r, id := range ids {
			if id != absentID {
				m[id] = int32(r)
			}
		}
		putU32(ids)
		rowOf[i] = m
	}

	// Intersection, in the first frame's order.
	var baseRows []int
	for r := 0; r < base.NRows(); r++ {
		id := baseKs.ids[r]
		ok := true
		for i := 1; i < len(frames); i++ {
			if rowOf[i][id] < 0 {
				ok = false
				break
			}
		}
		if ok {
			baseRows = append(baseRows, r)
		}
	}

	outIndex := base.index.Gather(baseRows)

	// Gather each frame's columns in key order and nest under its group.
	var outKeys []ColKey
	var outCols []*Series
	for gi, f := range frames {
		rows := baseRows
		if gi > 0 {
			rows = make([]int, len(baseRows))
			m := rowOf[gi]
			for ki, br := range baseRows {
				rows[ki] = int(m[baseKs.ids[br]])
			}
		}
		pref := f.cols.Prefixed(groups[gi])
		gathered := make([]*Series, f.NCols())
		parallel.For(f.NCols(), func(c int) {
			gathered[c] = f.data[c].Gather(rows)
		})
		for c := 0; c < f.NCols(); c++ {
			outKeys = append(outKeys, pref.Key(c))
			outCols = append(outCols, gathered[c])
		}
	}
	return NewFrameWithColIndex(outIndex, outKeys, outCols)
}

// Builder assembles a frame row-by-row from records; convenient for
// readers and simulators. Columns are created on first sight with the
// kind of the first value.
type Builder struct {
	indexNames []string
	indexKinds []Kind
	rows       [][]Value // index keys per record
	colOrder   []string
	colKind    map[string]Kind
	cells      []map[string]Value
}

// NewBuilder starts a builder whose row index has the named levels of the
// given kinds.
func NewBuilder(indexNames []string, indexKinds []Kind) *Builder {
	return &Builder{
		indexNames: append([]string(nil), indexNames...),
		indexKinds: append([]Kind(nil), indexKinds...),
		colKind:    make(map[string]Kind),
	}
}

// AddRow appends a record: its index key and named cell values. Columns
// new to the builder are registered in sorted name order (not Go map
// iteration order, which would make the column layout nondeterministic
// run-to-run).
func (b *Builder) AddRow(key []Value, cells map[string]Value) error {
	if len(key) != len(b.indexNames) {
		return fmt.Errorf("dataframe: key has %d parts, builder index has %d levels", len(key), len(b.indexNames))
	}
	b.rows = append(b.rows, append([]Value(nil), key...))
	names := make([]string, 0, len(cells))
	for name := range cells {
		names = append(names, name)
	}
	sort.Strings(names)
	copied := make(map[string]Value, len(cells))
	for _, name := range names {
		v := cells[name]
		if _, ok := b.colKind[name]; !ok {
			b.colKind[name] = v.Kind()
			b.colOrder = append(b.colOrder, name)
		}
		copied[name] = v
	}
	b.cells = append(b.cells, copied)
	return nil
}

// Build materializes the frame. Missing cells become nulls.
func (b *Builder) Build() (*Frame, error) {
	levels := make([]*Series, len(b.indexNames))
	for i := range levels {
		levels[i] = NewSeries(b.indexNames[i], b.indexKinds[i])
	}
	for _, key := range b.rows {
		for i, v := range key {
			if err := levels[i].Append(v); err != nil {
				return nil, fmt.Errorf("index level %q: %w", b.indexNames[i], err)
			}
		}
	}
	ix, err := NewIndex(levels...)
	if err != nil {
		return nil, err
	}
	cols := make([]*Series, 0, len(b.colOrder))
	for _, name := range b.colOrder {
		s := NewSeries(name, b.colKind[name])
		for _, cells := range b.cells {
			v, ok := cells[name]
			if !ok {
				v = Null(b.colKind[name])
			}
			if err := s.Append(v); err != nil {
				return nil, fmt.Errorf("column %q: %w", name, err)
			}
		}
		cols = append(cols, s)
	}
	return NewFrame(ix, cols...)
}

// Describe summarizes every numeric column: one row per column with
// count/mean/std/min/p25/median/p75/max — the pandas df.describe()
// overview for quick EDA.
func (f *Frame) Describe() (*Frame, error) {
	b := NewBuilder([]string{"column"}, []Kind{String})
	for c := 0; c < f.NCols(); c++ {
		col := f.data[c]
		if col.Kind() != Float && col.Kind() != Int {
			continue
		}
		vals := col.Floats()
		s := describeVals(vals)
		if err := b.AddRow([]Value{Str(f.cols.Key(c).String())}, map[string]Value{
			"count":  Float64(s[0]),
			"mean":   Float64(s[1]),
			"std":    Float64(s[2]),
			"min":    Float64(s[3]),
			"p25":    Float64(s[4]),
			"median": Float64(s[5]),
			"p75":    Float64(s[6]),
			"max":    Float64(s[7]),
		}); err != nil {
			return nil, err
		}
	}
	out, err := b.Build()
	if err != nil {
		return nil, err
	}
	if out.NCols() == 0 {
		return nil, fmt.Errorf("dataframe: no numeric columns to describe")
	}
	keys := []ColKey{{"count"}, {"mean"}, {"std"}, {"min"}, {"p25"}, {"median"}, {"p75"}, {"max"}}
	return out.SelectColumns(keys)
}

// denseNonNull remaps a coded column to dense ids in first-appearance
// order, mapping null cells to absentID — the unique-key extraction
// behind Pivot. Returns per-row ids, first-appearance rows, and the
// distinct count. ids is pooled; the caller releases it with putU32.
func denseNonNull(c coded) (ids []uint32, firsts []int32, k int) {
	tr := getU32(int(c.space) + 1)
	for i := range tr {
		tr[i] = absentID
	}
	ids = getU32(len(c.codes))
	next := uint32(0)
	for r, code := range c.codes {
		if code == nullCode {
			ids[r] = absentID
			continue
		}
		d := tr[code]
		if d == absentID {
			d = next
			next++
			tr[code] = d
			firsts = append(firsts, int32(r))
		}
		ids[r] = d
	}
	putU32(tr)
	return ids, firsts, int(next)
}

// Pivot reshapes the frame: rows become the unique values of one index
// level, columns become the unique values of a second index level (or a
// data column), and cells hold agg over the value column's entries for
// each (row, column) pair — the wide-format reshaping behind per-kernel ×
// per-size tables. Cells with no entries are NaN.
func (f *Frame) Pivot(rowName, colName, valueName string, agg func([]float64) float64) (*Frame, error) {
	rowS, err := f.seriesByName(rowName)
	if err != nil {
		return nil, fmt.Errorf("dataframe: pivot rows: %w", err)
	}
	colS, err := f.seriesByName(colName)
	if err != nil {
		return nil, fmt.Errorf("dataframe: pivot columns: %w", err)
	}
	valS, err := f.seriesByName(valueName)
	if err != nil {
		return nil, fmt.Errorf("dataframe: pivot values: %w", err)
	}
	if agg == nil {
		return nil, fmt.Errorf("dataframe: pivot requires an aggregator")
	}
	sp := telemetry.StartOp("dataframe.Pivot")
	if sp != nil {
		sp.SetAttr("rows", itoa(f.NRows()))
		sp.SetAttr("row_key", rowName)
		sp.SetAttr("col_key", colName)
		defer sp.End()
	}

	// Unique row/column keys in first-appearance order, as dense ids.
	rowC := encodeSeries(rowS)
	rowIDs, rowFirsts, nRows := denseNonNull(rowC)
	rowC.release()
	colC := encodeSeries(colS)
	colIDs, colFirsts, nCols := denseNonNull(colC)
	colC.release()
	defer putU32(rowIDs)
	defer putU32(colIDs)
	if nRows == 0 || nCols == 0 {
		return nil, fmt.Errorf("dataframe: pivot over empty keys")
	}
	rowKeys := make([]Value, nRows)
	for i, r := range rowFirsts {
		rowKeys[i] = rowS.At(int(r))
	}
	colKeys := make([]Value, nCols)
	for i, r := range colFirsts {
		colKeys[i] = colS.At(int(r))
	}

	// Collect cell samples chunk-parallel; merging chunk partials in
	// order preserves the sequential per-cell sample order, so
	// order-sensitive aggregators see identical inputs.
	parts := parallel.MapChunks(f.NRows(), func(lo, hi int) [][][]float64 {
		part := make([][][]float64, nRows)
		for r := lo; r < hi; r++ {
			ri, ci := rowIDs[r], colIDs[r]
			if ri == absentID || ci == absentID {
				continue
			}
			v, ok := valS.At(r).AsFloat()
			if !ok {
				continue
			}
			if part[ri] == nil {
				part[ri] = make([][]float64, nCols)
			}
			part[ri][ci] = append(part[ri][ci], v)
		}
		return part
	})
	cells := make([][][]float64, nRows)
	for i := range cells {
		cells[i] = make([][]float64, nCols)
	}
	for _, part := range parts {
		for ri, byCol := range part {
			if byCol == nil {
				continue
			}
			for ci, vals := range byCol {
				cells[ri][ci] = append(cells[ri][ci], vals...)
			}
		}
	}

	idxSeries := NewSeries(rowName, rowKeys[0].Kind())
	for _, k := range rowKeys {
		if err := idxSeries.Append(k); err != nil {
			return nil, err
		}
	}
	ix, err := NewIndex(idxSeries)
	if err != nil {
		return nil, err
	}
	columns := make([]*Series, nCols)
	parallel.For(nCols, func(ci int) {
		data := make([]float64, nRows)
		for ri := range rowKeys {
			if len(cells[ri][ci]) == 0 {
				data[ri] = math.NaN()
				continue
			}
			data[ri] = agg(cells[ri][ci])
		}
		columns[ci] = NewFloatSeries(colKeys[ci].String(), data)
	})
	return NewFrame(ix, columns...)
}
