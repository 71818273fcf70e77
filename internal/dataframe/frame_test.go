package dataframe

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// perfFrame builds a small (node, profile)-indexed frame mimicking the
// paper's Figure 2: four call sites, two profiles.
func perfFrame(t *testing.T) *Frame {
	t.Helper()
	nodes := []string{"MAIN", "MAIN", "FOO", "FOO", "BAR", "BAR", "BAZ", "BAZ"}
	profiles := []int64{1, 2, 1, 2, 1, 2, 1, 2}
	times := []float64{10, 11, 4, 4.5, 3, 3.2, 1, 1.1}
	misses := []int64{100, 120, 40, 42, 30, 31, 10, 12}
	ix := MustIndex(NewStringSeries("node", nodes), NewIntSeries("profile", profiles))
	return MustFrame(ix, NewFloatSeries("time", times), NewIntSeries("L1 misses", misses))
}

func TestFrameBasics(t *testing.T) {
	f := perfFrame(t)
	if f.NRows() != 8 || f.NCols() != 2 {
		t.Fatalf("shape = (%d,%d), want (8,2)", f.NRows(), f.NCols())
	}
	col, err := f.ColumnByName("time")
	if err != nil {
		t.Fatal(err)
	}
	if col.At(0).Float() != 10 {
		t.Error("wrong cell")
	}
	if _, err := f.ColumnByName("nope"); err == nil {
		t.Error("missing column must error")
	}
	v, err := f.Cell(3, ColKey{"L1 misses"})
	if err != nil || v.Int() != 42 {
		t.Errorf("Cell = %v, %v", v, err)
	}
	if err := f.SetCell(3, ColKey{"L1 misses"}, Int64(99)); err != nil {
		t.Fatal(err)
	}
	if got, _ := f.Cell(3, ColKey{"L1 misses"}); got.Int() != 99 {
		t.Error("SetCell did not take")
	}
}

func TestFrameMismatchedLengthRejected(t *testing.T) {
	ix := RangeIndex("i", 3)
	_, err := NewFrame(ix, NewFloatSeries("x", []float64{1, 2}))
	if err == nil {
		t.Error("column shorter than index must be rejected")
	}
}

func TestIndexLookup(t *testing.T) {
	f := perfFrame(t)
	rows := f.Index().Lookup([]Value{Str("FOO"), Int64(2)})
	if len(rows) != 1 || rows[0] != 3 {
		t.Errorf("Lookup = %v, want [3]", rows)
	}
	if f.Index().Contains([]Value{Str("NOPE"), Int64(1)}) {
		t.Error("Contains on absent key")
	}
	if f.Index().HasDuplicates() {
		t.Error("unique index flagged as duplicated")
	}
}

func TestIndexUniqueKeysAndSortedRows(t *testing.T) {
	ix := MustIndex(NewStringSeries("node", []string{"b", "a", "b"}))
	keys := ix.UniqueKeys()
	if len(keys) != 2 || keys[0][0].Str() != "b" || keys[1][0].Str() != "a" {
		t.Errorf("UniqueKeys = %v", keys)
	}
	rows := ix.SortedRows()
	if rows[0] != 1 { // "a" first
		t.Errorf("SortedRows = %v", rows)
	}
}

func TestFrameCopyIsolation(t *testing.T) {
	f := perfFrame(t)
	c := f.Copy()
	if err := c.SetCell(0, ColKey{"time"}, Float64(999)); err != nil {
		t.Fatal(err)
	}
	if got, _ := f.Cell(0, ColKey{"time"}); got.Float() == 999 {
		t.Error("Copy shares cell storage")
	}
	if err := c.Index().AppendKey([]Value{Str("NEW"), Int64(9)}); err != nil {
		t.Fatal(err)
	}
	if f.NRows() != 8 {
		t.Error("Copy shares index storage")
	}
}

func TestFilter(t *testing.T) {
	f := perfFrame(t)
	only1 := f.Filter(func(r Row) bool { return r.IndexValue("profile").Int() == 1 })
	if only1.NRows() != 4 {
		t.Fatalf("filtered rows = %d, want 4", only1.NRows())
	}
	for i := 0; i < only1.NRows(); i++ {
		if only1.Index().Level(1).At(i).Int() != 1 {
			t.Error("filter kept wrong row")
		}
	}
	none := f.Filter(func(r Row) bool { return false })
	if none.NRows() != 0 || none.NCols() != 2 {
		t.Error("empty filter should keep schema")
	}
}

func TestSortByColumns(t *testing.T) {
	f := perfFrame(t)
	sorted, err := f.SortByColumns("time")
	if err != nil {
		t.Fatal(err)
	}
	col, _ := sorted.ColumnByName("time")
	for i := 1; i < col.Len(); i++ {
		if col.FloatAt(i) < col.FloatAt(i-1) {
			t.Fatal("not sorted ascending")
		}
	}
	if _, err := f.SortByColumns("ghost"); err == nil {
		t.Error("sorting by missing column must error")
	}
}

func TestGroupByPartitionProperty(t *testing.T) {
	f := perfFrame(t)
	groups, err := f.GroupBy("node")
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 4 {
		t.Fatalf("groups = %d, want 4", len(groups))
	}
	total := 0
	for _, g := range groups {
		total += g.Frame.NRows()
		name := g.Key[0].Str()
		nodeCol := g.Frame.Index().Level(0)
		for i := 0; i < nodeCol.Len(); i++ {
			if nodeCol.At(i).Str() != name {
				t.Errorf("group %q contains foreign row %q", name, nodeCol.At(i).Str())
			}
		}
	}
	if total != f.NRows() {
		t.Errorf("groups cover %d rows, want %d (disjoint cover)", total, f.NRows())
	}
}

func TestGroupByIndexLevel(t *testing.T) {
	f := perfFrame(t)
	groups, err := f.GroupByIndexLevel("node")
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 4 {
		t.Fatalf("groups = %d, want 4", len(groups))
	}
	// First-appearance order: MAIN first.
	if groups[0].Key[0].Str() != "MAIN" {
		t.Errorf("first group = %v, want MAIN", groups[0].Key)
	}
	if _, err := f.GroupByIndexLevel("ghost"); err == nil {
		t.Error("missing level must error")
	}
}

func TestConcatRows(t *testing.T) {
	f := perfFrame(t)
	a := f.Filter(func(r Row) bool { return r.IndexValue("profile").Int() == 1 })
	b := f.Filter(func(r Row) bool { return r.IndexValue("profile").Int() == 2 })
	cat, err := ConcatRows(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if cat.NRows() != f.NRows() {
		t.Errorf("concat rows = %d, want %d", cat.NRows(), f.NRows())
	}
	// Sorting both by index key should reproduce identical tables.
	if !cat.SortByIndex().Equal(f.SortByIndex()) {
		t.Error("concat of a partition should equal the source modulo order")
	}
	// Mismatched schemas must fail.
	other := MustFrame(RangeIndex("i", 1), NewFloatSeries("z", []float64{1}))
	if _, err := ConcatRows(a, other); err == nil {
		t.Error("mismatched concat must error")
	}
}

func TestInnerJoinOnIndexComposition(t *testing.T) {
	// CPU frame: 3 keys. GPU frame: 2 overlapping keys + 1 extra.
	cpuIx := MustIndex(
		NewStringSeries("node", []string{"VOL3D", "HYDRO", "DOT"}),
		NewIntSeries("profile", []int64{1, 1, 1}),
	)
	cpu := MustFrame(cpuIx, NewFloatSeries("time (exc)", []float64{0.49, 2.07, 0.21}))
	gpuIx := MustIndex(
		NewStringSeries("node", []string{"HYDRO", "VOL3D", "MEMSET"}),
		NewIntSeries("profile", []int64{1, 1, 1}),
	)
	gpu := MustFrame(gpuIx, NewFloatSeries("time (gpu)", []float64{0.24, 0.04, 0.01}))

	joined, err := InnerJoinOnIndex([]string{"CPU", "GPU"}, []*Frame{cpu, gpu})
	if err != nil {
		t.Fatal(err)
	}
	if joined.NRows() != 2 {
		t.Fatalf("join rows = %d, want 2 (intersection)", joined.NRows())
	}
	if joined.ColIndex().NLevels() != 2 {
		t.Fatalf("column levels = %d, want 2", joined.ColIndex().NLevels())
	}
	v, err := joined.Cell(0, ColKey{"GPU", "time (gpu)"})
	if err != nil {
		t.Fatal(err)
	}
	// First base key present in both is VOL3D.
	if math.Abs(v.Float()-0.04) > 1e-12 {
		t.Errorf("GPU time for VOL3D = %v, want 0.04", v.Float())
	}
	groups := joined.ColIndex().Groups()
	if len(groups) != 2 || groups[0] != "CPU" || groups[1] != "GPU" {
		t.Errorf("groups = %v", groups)
	}

	// Duplicate keys in an input are rejected.
	dupIx := MustIndex(
		NewStringSeries("node", []string{"A", "A"}),
		NewIntSeries("profile", []int64{1, 1}),
	)
	dup := MustFrame(dupIx, NewFloatSeries("x", []float64{1, 2}))
	if _, err := InnerJoinOnIndex([]string{"L", "R"}, []*Frame{dup, cpu}); err == nil {
		t.Error("duplicate index keys must be rejected")
	}
}

func TestSelectGroup(t *testing.T) {
	cpuIx := MustIndex(NewStringSeries("node", []string{"A", "B"}), NewIntSeries("profile", []int64{1, 1}))
	cpu := MustFrame(cpuIx, NewFloatSeries("t", []float64{1, 2}))
	gpu := MustFrame(cpuIx.Copy(), NewFloatSeries("t", []float64{3, 4}))
	joined, err := InnerJoinOnIndex([]string{"CPU", "GPU"}, []*Frame{cpu, gpu})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := joined.SelectGroup("GPU")
	if err != nil {
		t.Fatal(err)
	}
	if sub.ColIndex().NLevels() != 1 || sub.NCols() != 1 {
		t.Fatalf("SelectGroup shape wrong: levels=%d cols=%d", sub.ColIndex().NLevels(), sub.NCols())
	}
	c, _ := sub.ColumnByName("t")
	if c.At(0).Float() != 3 {
		t.Error("SelectGroup returned wrong columns")
	}
	if _, err := joined.SelectGroup("TPU"); err == nil {
		t.Error("missing group must error")
	}
}

func TestSelectColumnsAndAddColumn(t *testing.T) {
	f := perfFrame(t)
	sub, err := f.SelectColumns([]ColKey{{"time"}})
	if err != nil {
		t.Fatal(err)
	}
	if sub.NCols() != 1 {
		t.Errorf("NCols = %d, want 1", sub.NCols())
	}
	if _, err := f.SelectColumns([]ColKey{{"ghost"}}); err == nil {
		t.Error("missing column must error")
	}
	derived := NewFloatSeries("speedup", make([]float64, f.NRows()))
	if err := f.AddColumn(derived); err != nil {
		t.Fatal(err)
	}
	if f.NCols() != 3 {
		t.Error("AddColumn did not extend frame")
	}
	if err := f.AddColumn(NewFloatSeries("short", []float64{1})); err == nil {
		t.Error("wrong-length column must be rejected")
	}
	if err := f.AddColumn(NewFloatSeries("time", make([]float64, f.NRows()))); err == nil {
		t.Error("duplicate column key must be rejected")
	}
}

func TestRenderContainsHeadersAndValues(t *testing.T) {
	f := perfFrame(t)
	out := f.String()
	for _, want := range []string{"node", "profile", "time", "L1 misses", "MAIN", "10.000000"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// Repeated node labels are hidden: "FOO" appears exactly once.
	if strings.Count(out, "FOO") != 1 {
		t.Errorf("expected repeated index hidden, got:\n%s", out)
	}
}

func TestRenderMaxRowsElision(t *testing.T) {
	f := perfFrame(t)
	out := f.Render(RenderOptions{MaxRows: 4})
	if !strings.Contains(out, "...") {
		t.Errorf("expected elision marker:\n%s", out)
	}
}

func TestCSVRoundTripShape(t *testing.T) {
	f := perfFrame(t)
	csvText, err := f.ToCSV()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvText), "\n")
	if len(lines) != 1+f.NRows() {
		t.Errorf("CSV lines = %d, want %d", len(lines), 1+f.NRows())
	}
	if !strings.HasPrefix(lines[0], "node,profile,time") {
		t.Errorf("CSV header = %q", lines[0])
	}
}

func TestJSONRoundTrip(t *testing.T) {
	f := perfFrame(t)
	// Add a null to exercise missing-cell round trip.
	if err := f.SetCell(0, ColKey{"time"}, NaN()); err != nil {
		t.Fatal(err)
	}
	data, err := f.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := FrameFromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Equal(back) {
		t.Errorf("JSON round trip mismatch:\n%s\nvs\n%s", f, back)
	}
}

func TestJSONRoundTripHierarchicalColumns(t *testing.T) {
	ix := MustIndex(NewStringSeries("node", []string{"A"}), NewIntSeries("profile", []int64{1}))
	a := MustFrame(ix, NewFloatSeries("t", []float64{1}))
	b := MustFrame(ix.Copy(), NewFloatSeries("t", []float64{2}))
	joined, err := InnerJoinOnIndex([]string{"CPU", "GPU"}, []*Frame{a, b})
	if err != nil {
		t.Fatal(err)
	}
	data, err := joined.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := FrameFromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !joined.Equal(back) {
		t.Error("hierarchical column JSON round trip mismatch")
	}
}

func TestFrameJSONRoundTripProperty(t *testing.T) {
	f := func(times []float64, names []string) bool {
		n := len(times)
		if len(names) < n {
			n = len(names)
		}
		nodes := make([]string, n)
		vals := make([]float64, n)
		for i := 0; i < n; i++ {
			nodes[i] = names[i]
			vals[i] = times[i]
		}
		ix := MustIndex(NewStringSeries("node", nodes))
		fr := MustFrame(ix, NewFloatSeries("time", vals))
		data, err := fr.MarshalJSON()
		if err != nil {
			return false
		}
		back, err := FrameFromJSON(data)
		if err != nil {
			return false
		}
		return fr.Equal(back)
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestFilterComposition(t *testing.T) {
	// filter(p) ∘ filter(q) == filter(p ∧ q) for pure predicates on values.
	f := perfFrame(t)
	p := func(r Row) bool { return r.Value("time").Float() > 2 }
	q := func(r Row) bool { return r.IndexValue("profile").Int() == 1 }
	both := func(r Row) bool { return p(r) && q(r) }
	chained := f.Filter(p).Filter(q)
	direct := f.Filter(both)
	if !chained.Equal(direct) {
		t.Error("filter composition law violated")
	}
}

func TestBuilder(t *testing.T) {
	b := NewBuilder([]string{"node", "profile"}, []Kind{String, Int})
	if err := b.AddRow([]Value{Str("A"), Int64(1)}, map[string]Value{"time": Float64(1.5)}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddRow([]Value{Str("B"), Int64(1)}, map[string]Value{"time": Float64(2.5), "misses": Int64(7)}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddRow([]Value{Str("A")}, nil); err == nil {
		t.Error("short key must be rejected")
	}
	f, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if f.NRows() != 2 || f.NCols() != 2 {
		t.Fatalf("built shape (%d,%d)", f.NRows(), f.NCols())
	}
	// Missing cell becomes null.
	v, err := f.Cell(0, ColKey{"misses"})
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsNull() {
		t.Error("missing cell should be null")
	}
}

func TestColIndexOps(t *testing.T) {
	ci := FlatColIndex([]string{"a", "b"})
	if ci.Find(ColKey{"b"}) != 1 {
		t.Error("Find broken")
	}
	if ci.Find(ColKey{"z"}) != -1 {
		t.Error("Find should return -1 for missing")
	}
	p := ci.Prefixed("CPU")
	if p.NLevels() != 2 || p.Find(ColKey{"CPU", "a"}) != 0 {
		t.Error("Prefixed broken")
	}
	if _, err := NewColIndex([]ColKey{{"x"}, {"x"}}); err == nil {
		t.Error("duplicate keys must be rejected")
	}
	if _, err := NewColIndex([]ColKey{{"x"}, {"y", "z"}}); err == nil {
		t.Error("ragged keys must be rejected")
	}
}

func TestFrameDescribe(t *testing.T) {
	f := perfFrame(t)
	d, err := f.Describe()
	if err != nil {
		t.Fatal(err)
	}
	// Two numeric columns described.
	if d.NRows() != 2 {
		t.Fatalf("describe rows = %d, want 2", d.NRows())
	}
	rows := d.Index().Lookup([]Value{Str("time")})
	if len(rows) != 1 {
		t.Fatal("missing time row")
	}
	mean, _ := d.Cell(rows[0], ColKey{"mean"})
	want := (10 + 11 + 4 + 4.5 + 3 + 3.2 + 1 + 1.1) / 8
	if math.Abs(mean.Float()-want) > 1e-9 {
		t.Errorf("mean = %v, want %v", mean.Float(), want)
	}
	cnt, _ := d.Cell(rows[0], ColKey{"count"})
	if cnt.Float() != 8 {
		t.Errorf("count = %v", cnt.Float())
	}
	mn, _ := d.Cell(rows[0], ColKey{"min"})
	mx, _ := d.Cell(rows[0], ColKey{"max"})
	if mn.Float() != 1 || mx.Float() != 11 {
		t.Errorf("min/max = %v/%v", mn.Float(), mx.Float())
	}
	// No numeric columns: error.
	onlyStr := MustFrame(RangeIndex("i", 1), NewStringSeries("s", []string{"x"}))
	if _, err := onlyStr.Describe(); err == nil {
		t.Error("no numeric columns must error")
	}
	// NaN handling.
	withNaN := MustFrame(RangeIndex("i", 3), NewFloatSeries("v", []float64{1, math.NaN(), 3}))
	dn, err := withNaN.Describe()
	if err != nil {
		t.Fatal(err)
	}
	c, _ := dn.Cell(0, ColKey{"count"})
	if c.Float() != 2 {
		t.Errorf("NaN should be excluded from count: %v", c.Float())
	}
}

func TestPivot(t *testing.T) {
	f := perfFrame(t)
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	// node × profile → mean time: 4 rows × 2 columns.
	p, err := f.Pivot("node", "profile", "time", mean)
	if err != nil {
		t.Fatal(err)
	}
	if p.NRows() != 4 || p.NCols() != 2 {
		t.Fatalf("pivot shape = (%d,%d), want (4,2)", p.NRows(), p.NCols())
	}
	rows := p.Index().Lookup([]Value{Str("FOO")})
	if len(rows) != 1 {
		t.Fatal("missing FOO row")
	}
	v, err := p.Cell(rows[0], ColKey{"2"})
	if err != nil || math.Abs(v.Float()-4.5) > 1e-9 {
		t.Errorf("FOO@2 = %v (%v)", v, err)
	}
	// Aggregation over duplicates: pivot node × node collapses profiles.
	p2, err := f.Pivot("node", "node", "time", mean)
	if err != nil {
		t.Fatal(err)
	}
	rows = p2.Index().Lookup([]Value{Str("MAIN")})
	v, _ = p2.Cell(rows[0], ColKey{"MAIN"})
	if math.Abs(v.Float()-10.5) > 1e-9 {
		t.Errorf("MAIN mean = %v, want 10.5", v.Float())
	}
	// Missing combinations are NaN.
	diag, _ := p2.Cell(rows[0], ColKey{"FOO"})
	if !diag.IsNull() {
		t.Error("disjoint (row,col) cell should be NaN")
	}
	// Errors.
	if _, err := f.Pivot("ghost", "profile", "time", mean); err == nil {
		t.Error("missing row key must error")
	}
	if _, err := f.Pivot("node", "ghost", "time", mean); err == nil {
		t.Error("missing column key must error")
	}
	if _, err := f.Pivot("node", "profile", "ghost", mean); err == nil {
		t.Error("missing value column must error")
	}
	if _, err := f.Pivot("node", "profile", "time", nil); err == nil {
		t.Error("nil aggregator must error")
	}
}

func TestConcatRowsOuter(t *testing.T) {
	a := MustFrame(MustIndex(NewStringSeries("node", []string{"x"})),
		NewFloatSeries("time", []float64{1}))
	b := MustFrame(MustIndex(NewStringSeries("node", []string{"y"})),
		NewFloatSeries("time", []float64{2}),
		NewIntSeries("reps", []int64{7}))
	cat, err := ConcatRowsOuter(nil, []*Frame{a, b}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cat.NRows() != 2 || cat.NCols() != 2 {
		t.Fatalf("shape = (%d,%d), want (2,2)", cat.NRows(), cat.NCols())
	}
	// a's row has a null reps cell.
	v, err := cat.Cell(0, ColKey{"reps"})
	if err != nil || !v.IsNull() {
		t.Errorf("missing cell should be null: %v (%v)", v, err)
	}
	v, _ = cat.Cell(1, ColKey{"reps"})
	if v.Int() != 7 {
		t.Errorf("reps = %v, want 7", v)
	}
	// Kind conflicts rejected.
	c := MustFrame(MustIndex(NewStringSeries("node", []string{"z"})),
		NewStringSeries("time", []string{"oops"}))
	if _, err := ConcatRowsOuter(nil, []*Frame{a, c}, nil); err == nil {
		t.Error("conflicting column kinds must error")
	}
	// Index name mismatch rejected.
	d := MustFrame(MustIndex(NewStringSeries("region", []string{"z"})),
		NewFloatSeries("time", []float64{3}))
	if _, err := ConcatRowsOuter(nil, []*Frame{a, d}, nil); err == nil {
		t.Error("index level name mismatch must error")
	}
}

func TestPivotSumPreservationProperty(t *testing.T) {
	// Pivoting with the sum aggregator preserves the value column's total
	// (over rows with non-null keys).
	sum := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s
	}
	f := func(raw []int8, keys []uint8) bool {
		n := len(raw)
		if len(keys) < n {
			n = len(keys)
		}
		if n == 0 {
			return true
		}
		nodes := make([]string, n)
		groups := make([]int64, n)
		vals := make([]float64, n)
		total := 0.0
		for i := 0; i < n; i++ {
			nodes[i] = string(rune('a' + keys[i]%4))
			groups[i] = int64(keys[i] % 3)
			vals[i] = float64(raw[i])
			total += vals[i]
		}
		ix := MustIndex(NewStringSeries("node", nodes))
		fr := MustFrame(ix, NewIntSeries("group", groups), NewFloatSeries("v", vals))
		p, err := fr.Pivot("node", "group", "v", sum)
		if err != nil {
			return false
		}
		got := 0.0
		for c := 0; c < p.NCols(); c++ {
			for r := 0; r < p.NRows(); r++ {
				v, ok := p.ColumnAt(c).At(r).AsFloat()
				if ok {
					got += v
				}
			}
		}
		return math.Abs(got-total) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestConcatRowsOuterRowCountProperty(t *testing.T) {
	// |concat| rows = Σ input rows, and every input cell survives.
	f := func(a, b []int8) bool {
		mk := func(vals []int8, col string) *Frame {
			data := make([]float64, len(vals))
			for i, v := range vals {
				data[i] = float64(v)
			}
			return MustFrame(RangeIndex("i", len(vals)), NewFloatSeries(col, data))
		}
		fa, fb := mk(a, "x"), mk(b, "y")
		cat, err := ConcatRowsOuter(nil, []*Frame{fa, fb}, nil)
		if err != nil {
			return false
		}
		if cat.NRows() != len(a)+len(b) {
			return false
		}
		// fa's x values appear in the first len(a) rows.
		colX, err := cat.ColumnByName("x")
		if err != nil {
			return false
		}
		for i := range a {
			if colX.FloatAt(i) != float64(a[i]) {
				return false
			}
		}
		// fb's rows have null x.
		for i := range b {
			if !colX.At(len(a) + i).IsNull() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSmallFrameAccessors(t *testing.T) {
	f := perfFrame(t)
	// Column by exact key; HasColumn.
	col, err := f.Column(ColKey{"time"})
	if err != nil || col.Name() != "time" {
		t.Errorf("Column = %v (%v)", col, err)
	}
	if _, err := f.Column(ColKey{"ghost"}); err == nil {
		t.Error("missing exact key must error")
	}
	if !f.HasColumn(ColKey{"time"}) || f.HasColumn(ColKey{"ghost"}) {
		t.Error("HasColumn broken")
	}
	// Row cursor accessors.
	visited := 0
	f.Each(func(r Row) {
		if r.Pos() != visited {
			t.Error("Pos out of order")
		}
		if r.ValueAt(ColKey{"time"}).IsNull() {
			t.Error("ValueAt broken")
		}
		if !r.ValueAt(ColKey{"ghost"}).IsNull() {
			t.Error("ValueAt of missing column should be null")
		}
		visited++
	})
	if visited != f.NRows() {
		t.Error("Each missed rows")
	}
	// FilterRows with out-of-range positions.
	sub := f.FilterRows([]int{0, 2, 99, -1})
	if sub.NRows() != 2 {
		t.Errorf("FilterRows = %d rows, want 2", sub.NRows())
	}
	// Series rename and boxed values.
	s := NewFloatSeries("a", []float64{1}).Rename("b")
	if s.Name() != "b" {
		t.Error("Rename broken")
	}
	vals := s.Values()
	if len(vals) != 1 || vals[0].Float() != 1 {
		t.Error("Values broken")
	}
	// FormatKey display.
	if FormatKey([]Value{Str("a"), Int64(2)}) != "a, 2" {
		t.Error("FormatKey broken")
	}
	// Hierarchical header rendering hits samePrefix.
	ix := MustIndex(NewStringSeries("node", []string{"x"}))
	a := MustFrame(ix, NewFloatSeries("m1", []float64{1}))
	b := MustFrame(ix.Copy(), NewFloatSeries("m2", []float64{2}))
	joined, err := InnerJoinOnIndex([]string{"G", "H"}, []*Frame{a, b})
	if err != nil {
		t.Fatal(err)
	}
	joined2, err := joined.SelectColumns([]ColKey{{"G", "m1"}, {"H", "m2"}})
	if err != nil {
		t.Fatal(err)
	}
	out := joined2.String()
	if !strings.Contains(out, "G") || !strings.Contains(out, "H") {
		t.Errorf("group headers missing:\n%s", out)
	}
	// Frame.Equal mismatch branches.
	if joined.Equal(a) {
		t.Error("different frames must not be equal")
	}
	c := a.Copy()
	_ = c.ColumnAt(0).Set(0, Float64(9))
	if a.Equal(c) {
		t.Error("cell difference must break equality")
	}
}
