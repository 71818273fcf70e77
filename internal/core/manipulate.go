package core

import (
	"fmt"

	"repro/internal/calltree"
	"repro/internal/dataframe"
	"repro/internal/parallel"
	"repro/internal/query"
	"repro/internal/stats"
)

// MetaRow is a typed view of one metadata row passed to filter
// predicates, mirroring the paper's `lambda x: x["compiler"] == ...`
// idiom (Figure 6).
type MetaRow struct {
	row dataframe.Row
}

// Profile returns the row's profile index value.
func (m MetaRow) Profile(level string) dataframe.Value { return m.row.IndexValue(level) }

// Pos returns the physical metadata row position — the hook that lets a
// vectorized evaluator precompute a selection mask and feed it through
// FilterMetadata without re-evaluating predicates row-at-a-time.
func (m MetaRow) Pos() int { return m.row.Pos() }

// Value returns the metadata cell under the named column. A column that
// was promoted to the profile index (Options.IndexBy) resolves to the
// index value, so predicates keep working after promotion.
func (m MetaRow) Value(column string) dataframe.Value {
	v := m.row.Value(column)
	if v.IsNull() {
		if iv := m.row.IndexValue(column); !iv.IsNull() {
			return iv
		}
	}
	return v
}

// Str returns the metadata cell as a string ("" when absent/non-string).
func (m MetaRow) Str(column string) string {
	v := m.Value(column)
	if v.Kind() == dataframe.String && !v.IsNull() {
		return v.Str()
	}
	return ""
}

// Int returns the metadata cell as int64 (0 when absent/non-int).
func (m MetaRow) Int(column string) int64 {
	v := m.Value(column)
	if v.Kind() == dataframe.Int && !v.IsNull() {
		return v.Int()
	}
	return 0
}

// Float returns the metadata cell coerced to float64 (NaN when absent).
func (m MetaRow) Float(column string) float64 {
	f, _ := m.Value(column).AsFloat()
	return f
}

// keepLevelPred builds a Filter predicate keeping rows whose value in
// the given string index level is a key of keep. For dict-encoded levels
// the path set is translated to dictionary codes once, so each row test
// is a bounds-checked slice load instead of a string materialization and
// hash probe.
func keepLevelPred(lv *dataframe.Series, keep map[string]bool) func(dataframe.Row) bool {
	dict, codes := lv.StringData()
	if dict == nil {
		return func(r dataframe.Row) bool { return keep[lv.At(r.Pos()).Str()] }
	}
	nulls := lv.Nulls()
	keepNull := keep[""] // a null cell reads back as ""
	codeKeep := make([]bool, dict.Len())
	for p, ok := range keep {
		if !ok {
			continue
		}
		if c, found := dict.Code(p); found && int(c) < len(codeKeep) {
			codeKeep[c] = true
		}
	}
	return func(r dataframe.Row) bool {
		i := r.Pos()
		if nulls[i] {
			return keepNull
		}
		c := codes[i]
		return int(c) < len(codeKeep) && codeKeep[c]
	}
}

// FilterMetadata returns a new thicket containing only the profiles whose
// metadata row satisfies pred (paper §4.1.1, Figure 6). The performance
// data is restricted to the surviving profiles; the tree and stats are
// carried over.
func (t *Thicket) FilterMetadata(pred func(MetaRow) bool) *Thicket {
	var rows []int
	t.Metadata.Each(func(r dataframe.Row) {
		if pred(MetaRow{row: r}) {
			rows = append(rows, r.Pos())
		}
	})
	// Perf rows survive when their profile value is a kept metadata key:
	// a semi-join on the profile level. A multi-level metadata key never
	// equals a single profile value, so nothing survives then.
	var perfRows []int
	if mix := t.Metadata.Index(); mix.NLevels() == 1 {
		profLv := t.PerfData.Index().LevelByName(t.profileLevel)
		perfRows = dataframe.SemiJoin(profLv, mix.Level(0), rows)
	}
	return t.copyWith(t.Tree.Copy(), t.PerfData.SelectRows(perfRows), t.Metadata.SelectRows(rows), t.Stats.Copy())
}

// FilterProfiles keeps only the profiles whose index value appears in
// values.
func (t *Thicket) FilterProfiles(values []dataframe.Value) *Thicket {
	want := make(map[string]bool, len(values))
	for _, v := range values {
		want[dataframe.EncodeKey([]dataframe.Value{v})] = true
	}
	return t.FilterMetadata(func(m MetaRow) bool {
		return want[dataframe.EncodeKey([]dataframe.Value{m.Profile(t.profileLevel)})]
	})
}

// GroupedThicket is one output of GroupBy: the unique key values and the
// sub-thicket of profiles carrying them.
type GroupedThicket struct {
	Key     []dataframe.Value
	Columns []string
	Thicket *Thicket
}

// GroupBy partitions the thicket by unique combinations of values in the
// given metadata columns, returning one new thicket per combination
// ordered by key (paper §4.1.2, Figure 7). A profile joins every group
// whose key its MetaRow values Equal column by column — exactly the
// per-group FilterMetadata — but the perf→metadata join runs once and
// the perf rows split across groups in one pass.
func (t *Thicket) GroupBy(columns ...string) ([]GroupedThicket, error) {
	keys, _, err := t.Metadata.GroupRows(columns...)
	if err != nil {
		return nil, err
	}
	// Resolve each column once the way MetaRow.Value does per row: the
	// data column, falling back to a same-named index level on nulls.
	type source struct{ col, lvl *dataframe.Series }
	srcs := make([]source, len(columns))
	for ci, name := range columns {
		srcs[ci].col, _ = t.Metadata.ColumnByName(name)
		srcs[ci].lvl = t.Metadata.Index().LevelByName(name)
	}
	byKey := make(map[string][]int, len(keys))
	for g, key := range keys {
		k := equalKey(key)
		byKey[k] = append(byKey[k], g)
	}
	nmeta := t.Metadata.NRows()
	metaRows := make([][]int, len(keys))
	groupsOf := make([][]int, nmeta)
	vals := make([]dataframe.Value, len(columns))
	for r := 0; r < nmeta; r++ {
		for ci, s := range srcs {
			v := dataframe.Null(dataframe.String)
			if s.col != nil {
				v = s.col.At(r)
			}
			if v.IsNull() && s.lvl != nil {
				if iv := s.lvl.At(r); !iv.IsNull() {
					v = iv
				}
			}
			vals[ci] = v
		}
		groupsOf[r] = byKey[equalKey(vals)]
		for _, g := range groupsOf[r] {
			metaRows[g] = append(metaRows[g], r)
		}
	}
	perfRows := make([][]int, len(keys))
	for p, m := range t.MetaPositions() {
		if m >= 0 {
			for _, g := range groupsOf[m] {
				perfRows[g] = append(perfRows[g], p)
			}
		}
	}
	out := make([]GroupedThicket, len(keys))
	parallel.For(len(keys), func(g int) {
		sub := t.copyWith(t.Tree.Copy(), t.PerfData.SelectRows(perfRows[g]), t.Metadata.SelectRows(metaRows[g]), t.Stats.Copy())
		out[g] = GroupedThicket{Key: keys[g], Columns: columns, Thicket: sub}
	})
	return out, nil
}

// equalKey renders a composite key so that two keys render alike exactly
// when Value.Equal holds column by column: the kind is spelled out (typed
// nulls differ across kinds) and a zero float loses its sign (−0 Equals
// +0).
func equalKey(vals []dataframe.Value) string {
	canon := make([]dataframe.Value, len(vals))
	kinds := make([]byte, len(vals))
	for i, v := range vals {
		kinds[i] = byte(v.Kind())
		if v.Kind() == dataframe.Float && !v.IsNull() && v.Float() == 0 {
			v = dataframe.Float64(0)
		}
		canon[i] = v
	}
	return string(kinds) + dataframe.EncodeKey(canon)
}

// MetaPositions returns, for every perf row, the position of the
// metadata row holding its profile, or -1 — the join FilterMetadata's
// semi-join answers, after which any metadata selection becomes a perf
// selection in one array pass. Metadata profiles are unique in a valid
// thicket; a multi-level metadata key never equals a single profile
// value, so every position is -1 then.
func (t *Thicket) MetaPositions() []int32 {
	mix := t.Metadata.Index()
	if mix.NLevels() != 1 {
		out := make([]int32, t.PerfData.NRows())
		for i := range out {
			out[i] = -1
		}
		return out
	}
	return dataframe.JoinPositions(t.PerfData.Index().LevelByName(t.profileLevel), mix.Level(0))
}

// Query applies a call-path query (paper §4.1.3, Figure 8) and returns a
// new thicket restricted to the nodes on matched paths, with ancestors
// retained so the call tree stays rooted. Accepts a single Matcher or a
// compound query (query.AnyOf / query.AllOf).
func (t *Thicket) Query(m query.Applier) (*Thicket, error) {
	keys, err := m.Apply(t.Tree)
	if err != nil {
		return nil, err
	}
	tree := t.Tree.FilterKeys(keys, true)
	keepPath := make(map[string]bool, tree.Len())
	for _, n := range tree.Nodes() {
		keepPath[nodePath(n)] = true
	}
	nodeLv := t.PerfData.Index().LevelByName(NodeLevel)
	perf := t.PerfData.Filter(keepLevelPred(nodeLv, keepPath))
	statsLv := t.Stats.Index().LevelByName(NodeLevel)
	stats := t.Stats.Filter(keepLevelPred(statsLv, keepPath))
	return t.copyWith(tree, perf, t.Metadata.Copy(), stats), nil
}

// QueryString compiles the textual query DSL (see query.Parse) and
// applies it.
func (t *Thicket) QueryString(text string) (*Thicket, error) {
	m, err := query.Parse(text)
	if err != nil {
		return nil, err
	}
	return t.Query(m)
}

// MetricPredicate builds a call-path query predicate over performance
// data: it is true for call-tree nodes whose metric, order-reduced by
// the named aggregator across all profiles, satisfies cond. This is the
// Hatchet idiom of querying with metric conditions (e.g. "paths through
// nodes with mean time > 1s") lifted to ensembles.
func (t *Thicket) MetricPredicate(metric dataframe.ColKey, agg string, cond func(float64) bool) (query.Predicate, error) {
	aggregator, err := stats.ByName(agg)
	if err != nil {
		return nil, err
	}
	col, err := t.PerfData.Column(metric)
	if err != nil {
		return nil, err
	}
	nodeLv := t.PerfData.Index().LevelByName(NodeLevel)
	byNode := map[string][]float64{}
	for r := 0; r < t.PerfData.NRows(); r++ {
		v, ok := col.At(r).AsFloat()
		if !ok {
			continue
		}
		p := nodeLv.At(r).Str()
		byNode[p] = append(byNode[p], v)
	}
	reduced := make(map[string]float64, len(byNode))
	for p, vals := range byNode {
		reduced[p] = aggregator.Fn(vals)
	}
	return func(n *calltree.Node) bool {
		v, ok := reduced[n.PathString()]
		return ok && cond(v)
	}, nil
}

// StatsRow is a typed view of one aggregated-statistics row.
type StatsRow struct {
	row dataframe.Row
}

// Node returns the row's node path.
func (s StatsRow) Node() string { return s.row.IndexValue(NodeLevel).Str() }

// Value returns the statistics cell under the named column.
func (s StatsRow) Value(column string) dataframe.Value { return s.row.Value(column) }

// Float returns the statistics cell coerced to float64.
func (s StatsRow) Float(column string) float64 {
	f, _ := s.row.Value(column).AsFloat()
	return f
}

// FilterStats returns a new thicket restricted to the call-tree nodes
// whose aggregated-statistics row satisfies pred (paper §4.2.1, Figure
// 9). Performance data and the tree are restricted consistently.
func (t *Thicket) FilterStats(pred func(StatsRow) bool) *Thicket {
	stats := t.Stats.Filter(func(r dataframe.Row) bool { return pred(StatsRow{row: r}) })
	keepPath := make(map[string]bool, stats.NRows())
	lv := stats.Index().LevelByName(NodeLevel)
	for r := 0; r < stats.NRows(); r++ {
		keepPath[lv.At(r).Str()] = true
	}
	keepKeys := make(map[string]bool, len(keepPath))
	for p := range keepPath {
		if n := t.NodeByPathString(p); n != nil {
			keepKeys[n.Key()] = true
		}
	}
	tree := t.Tree.FilterKeys(keepKeys, true)
	nodeLv := t.PerfData.Index().LevelByName(NodeLevel)
	perf := t.PerfData.Filter(keepLevelPred(nodeLv, keepPath))
	return t.copyWith(tree, perf, t.Metadata.Copy(), stats)
}

// SelectMetrics returns a new thicket whose PerfData keeps only the given
// metric columns.
func (t *Thicket) SelectMetrics(keys ...dataframe.ColKey) (*Thicket, error) {
	perf, err := t.PerfData.SelectColumns(keys)
	if err != nil {
		return nil, err
	}
	return t.copyWith(t.Tree.Copy(), perf, t.Metadata.Copy(), t.Stats.Copy()), nil
}

// AddDerived appends a derived metric column computed per PerfData row
// (the paper's Figure 15 speedup column). The function receives a row
// cursor; the returned values must share one kind.
func (t *Thicket) AddDerived(key dataframe.ColKey, f func(dataframe.Row) dataframe.Value) error {
	collected := make([]dataframe.Value, 0, t.PerfData.NRows())
	t.PerfData.Each(func(r dataframe.Row) {
		collected = append(collected, f(r))
	})
	series, err := dataframe.SeriesOf(key.Leaf(), collected)
	if err != nil {
		return fmt.Errorf("core: derived column %v: %w", key, err)
	}
	return t.PerfData.AddColumnWithKey(key, series)
}

// FilterNodes returns a new thicket restricted to call-tree nodes
// satisfying pred (ancestors of kept nodes are retained so the tree
// stays rooted). A structural convenience over Query for predicates that
// need no path context.
func (t *Thicket) FilterNodes(pred func(n *calltree.Node) bool) *Thicket {
	keep := map[string]bool{}
	for _, n := range t.Tree.Nodes() {
		if pred(n) {
			keep[n.Key()] = true
		}
	}
	tree := t.Tree.FilterKeys(keep, true)
	keepPath := make(map[string]bool, tree.Len())
	for _, n := range tree.Nodes() {
		keepPath[nodePath(n)] = true
	}
	nodeLv := t.PerfData.Index().LevelByName(NodeLevel)
	perf := t.PerfData.Filter(keepLevelPred(nodeLv, keepPath))
	statsLv := t.Stats.Index().LevelByName(NodeLevel)
	statsF := t.Stats.Filter(keepLevelPred(statsLv, keepPath))
	return t.copyWith(tree, perf, t.Metadata.Copy(), statsF)
}
