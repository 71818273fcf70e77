// Package core implements the thicket object — the paper's contribution:
// a unified, relational view of an ensemble of performance profiles built
// from three linked components (§3.1):
//
//   - PerfData: a multi-indexed table with one row per (call-tree node,
//     profile) pair and one column per measured or derived metric; after
//     horizontal composition the columns gain an outer group level
//     (e.g. CPU / GPU).
//   - Metadata: one row per profile holding build settings and execution
//     context, keyed by the profile index.
//   - Stats: one row per call-tree node holding order-reduced statistics
//     computed across profiles.
//
// The components are linked by the profile index (PerfData ↔ Metadata)
// and the call-tree node (PerfData ↔ Stats), exactly the primary/foreign
// keys of the paper's Figure 3. Every manipulation verb returns a new
// thicket; inputs are never mutated (§4.1).
package core

import (
	"fmt"
	"strings"

	"repro/internal/calltree"
	"repro/internal/dataframe"
	"repro/internal/profile"
)

// Index level names used across the three components.
const (
	NodeLevel    = "node"
	ProfileLevel = "profile"
)

// Thicket is the unified ensemble object.
type Thicket struct {
	// Tree is the union call tree over all composed profiles.
	Tree *calltree.Tree
	// PerfData is indexed by (node, profile); see package comment.
	PerfData *dataframe.Frame
	// Metadata is indexed by (profile).
	Metadata *dataframe.Frame
	// Stats is indexed by (node); empty until AggregateStats runs.
	Stats *dataframe.Frame

	// profileLevel is the name of the profile index level: ProfileLevel
	// by default, or the metadata column chosen via Options.IndexBy.
	profileLevel string
}

// Options configures FromProfiles.
type Options struct {
	// IndexBy selects a metadata column to use as the profile index
	// (paper §3.2.1: "a study-relevant metadata column such as problem
	// size") instead of the default metadata hash. The chosen values must
	// be unique across profiles.
	IndexBy string

	// IntersectTrees keeps only call-tree nodes present in every profile
	// instead of the default union — the paper's intersection semantics
	// ("find intersections of the call trees") for ensembles whose trees
	// diverge, e.g. different code versions.
	IntersectTrees bool
}

// ProfileLevelName returns the name of the profile index level.
func (t *Thicket) ProfileLevelName() string { return t.profileLevel }

// nodePath renders a call-tree node's root path as the index value used
// in the data tables.
func nodePath(n *calltree.Node) string { return n.PathString() }

// nodePaths renders every node's nodePath in tree pre-order, each one
// extending its parent's instead of re-joining the whole root path.
func nodePaths(tree *calltree.Tree) []string {
	out := make([]string, 0, tree.Len())
	var walk func(n *calltree.Node, path string)
	walk = func(n *calltree.Node, path string) {
		out = append(out, path)
		for _, c := range n.Children() {
			walk(c, path+"/"+c.Name())
		}
	}
	for _, r := range tree.Roots() {
		walk(r, r.Name())
	}
	return out
}

// FromProfiles composes a set of profiles into one thicket (paper
// §3.2.1): the call trees are unioned on node identity, each profile
// receives a profile index (metadata hash by default), and the three
// component tables are assembled.
func FromProfiles(profiles []*profile.Profile, opts Options) (*Thicket, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("core: no profiles")
	}
	for i, p := range profiles {
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("core: profile %d: %w", i, err)
		}
		for _, n := range p.Tree().Nodes() {
			if strings.Contains(n.Name(), "/") {
				return nil, fmt.Errorf("core: profile %d: region name %q contains '/'", i, n.Name())
			}
		}
	}

	level := ProfileLevel
	if opts.IndexBy != "" {
		level = opts.IndexBy
	}

	// Assign profile index values.
	indexVals := make([]dataframe.Value, len(profiles))
	seen := make(map[string]int)
	for i, p := range profiles {
		var v dataframe.Value
		if opts.IndexBy != "" {
			mv, ok := p.Meta(opts.IndexBy)
			if !ok {
				return nil, fmt.Errorf("core: profile %d lacks metadata %q requested as index", i, opts.IndexBy)
			}
			v = mv
		} else {
			v = dataframe.Int64(p.Hash())
		}
		enc := dataframe.EncodeKey([]dataframe.Value{v})
		if j, dup := seen[enc]; dup {
			return nil, fmt.Errorf("core: profiles %d and %d share index value %s; use the default hash index or a distinguishing column", j, i, v)
		}
		seen[enc] = i
		indexVals[i] = v
	}

	// Union (or intersection) call tree and metric-name union in
	// first-appearance order.
	tree := calltree.New()
	var metricOrder []string
	metricSeen := map[string]bool{}
	for _, p := range profiles {
		tree = calltree.Union(tree, p.Tree())
		for _, m := range p.MetricNames() {
			if !metricSeen[m] {
				metricSeen[m] = true
				metricOrder = append(metricOrder, m)
			}
		}
	}
	if opts.IntersectTrees {
		trees := make([]*calltree.Tree, len(profiles))
		for i, p := range profiles {
			trees[i] = p.Tree()
		}
		tree = calltree.Intersect(trees...)
	}

	// Performance data: rows ordered tree pre-order × profile order.
	indexKind := dataframe.Int
	if len(indexVals) > 0 {
		indexKind = indexVals[0].Kind()
	}
	pb := dataframe.NewBuilder([]string{NodeLevel, level}, []dataframe.Kind{dataframe.String, indexKind})
	for _, n := range tree.Nodes() {
		for pi, p := range profiles {
			own := p.Tree().NodeByKey(n.Key())
			if own == nil {
				continue // node absent from this profile's tree
			}
			metrics := p.NodeMetrics(own.Key())
			cells := make(map[string]dataframe.Value, len(metrics))
			for name, v := range metrics {
				cells[name] = v
			}
			if err := pb.AddRow([]dataframe.Value{dataframe.Str(nodePath(n)), indexVals[pi]}, cells); err != nil {
				return nil, err
			}
		}
	}
	perf, err := pb.Build()
	if err != nil {
		return nil, err
	}
	// Column order: metric union order, not first-row order.
	perf, err = reorderColumns(perf, metricOrder)
	if err != nil {
		return nil, err
	}

	// Metadata: union of keys in first-appearance order.
	var metaOrder []string
	metaSeen := map[string]bool{}
	for _, p := range profiles {
		for _, k := range p.MetaKeys() {
			if k == opts.IndexBy {
				continue // promoted to the index (pandas set_index semantics)
			}
			if !metaSeen[k] {
				metaSeen[k] = true
				metaOrder = append(metaOrder, k)
			}
		}
	}
	mb := dataframe.NewBuilder([]string{level}, []dataframe.Kind{indexKind})
	for pi, p := range profiles {
		cells := make(map[string]dataframe.Value, len(metaOrder))
		for _, k := range metaOrder {
			if v, ok := p.Meta(k); ok {
				cells[k] = v
			}
		}
		if err := mb.AddRow([]dataframe.Value{indexVals[pi]}, cells); err != nil {
			return nil, err
		}
	}
	meta, err := mb.Build()
	if err != nil {
		return nil, err
	}
	meta, err = reorderColumns(meta, metaOrder)
	if err != nil {
		return nil, err
	}

	return &Thicket{
		Tree:         tree,
		PerfData:     perf,
		Metadata:     meta,
		Stats:        emptyStats(tree),
		profileLevel: level,
	}, nil
}

// FromParts assembles a thicket directly from its components — the
// reconstruction path used by deserializers (the JSON reader and the
// columnar store). A nil stats frame gets the canonical empty per-node
// stats table. The relational invariants of Figure 3 are validated
// before the thicket is returned.
func FromParts(tree *calltree.Tree, perf, meta, stats *dataframe.Frame, profileLevel string) (*Thicket, error) {
	if tree == nil || perf == nil || meta == nil {
		return nil, fmt.Errorf("core: FromParts requires tree, perf data, and metadata")
	}
	if profileLevel == "" {
		return nil, fmt.Errorf("core: missing profile level")
	}
	if stats == nil {
		stats = emptyStats(tree)
	}
	th := &Thicket{
		Tree:         tree,
		PerfData:     perf,
		Metadata:     meta,
		Stats:        stats,
		profileLevel: profileLevel,
	}
	if err := th.Validate(); err != nil {
		return nil, err
	}
	return th, nil
}

// reorderColumns returns a copy of f with columns in the given leaf-name
// order; names absent from f are skipped.
func reorderColumns(f *dataframe.Frame, order []string) (*dataframe.Frame, error) {
	var keys []dataframe.ColKey
	for _, name := range order {
		k := dataframe.ColKey{name}
		if f.HasColumn(k) {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return f, nil
	}
	return f.SelectColumns(keys)
}

// emptyStats builds the (node)-indexed empty statistics frame covering
// every tree node in pre-order.
func emptyStats(tree *calltree.Tree) *dataframe.Frame {
	return dataframe.MustFrame(dataframe.MustIndex(dataframe.NewStringSeries(NodeLevel, nodePaths(tree))))
}

// Profiles returns the distinct profile-index values in metadata order.
func (t *Thicket) Profiles() []dataframe.Value {
	return t.Metadata.Index().Level(0).Values()
}

// NumProfiles reports the number of composed profiles.
func (t *Thicket) NumProfiles() int { return t.Metadata.NRows() }

// NodePaths returns the node index values (root-path strings) in tree
// pre-order.
func (t *Thicket) NodePaths() []string { return nodePaths(t.Tree) }

// NodeByPathString resolves a "/"-joined node path back to the tree node.
func (t *Thicket) NodeByPathString(path string) *calltree.Node {
	return t.Tree.NodeByPath(strings.Split(path, "/"))
}

// copyWith assembles a new thicket sharing no mutable state.
func (t *Thicket) copyWith(tree *calltree.Tree, perf, meta, stats *dataframe.Frame) *Thicket {
	return &Thicket{
		Tree:         tree,
		PerfData:     perf,
		Metadata:     meta,
		Stats:        stats,
		profileLevel: t.profileLevel,
	}
}

// Copy returns a deep copy of the thicket.
func (t *Thicket) Copy() *Thicket {
	return t.copyWith(t.Tree.Copy(), t.PerfData.Copy(), t.Metadata.Copy(), t.Stats.Copy())
}

// Validate checks the relational invariants of Figure 3: every PerfData
// row's profile exists in Metadata, every PerfData node exists in the
// tree, every Stats node exists in the tree, and Metadata profiles are
// unique.
func (t *Thicket) Validate() error {
	if t.Metadata.Index().HasDuplicates() {
		return fmt.Errorf("core: duplicate profile index in metadata")
	}
	nodeLv := t.PerfData.Index().LevelByName(NodeLevel)
	profLv := t.PerfData.Index().LevelByName(t.profileLevel)
	if nodeLv == nil || profLv == nil {
		return fmt.Errorf("core: perf data index must have levels (%s, %s)", NodeLevel, t.profileLevel)
	}
	// Perf rows are the cross product of nodes × profiles, so distinct
	// level values are few; memoize the per-value checks instead of
	// re-resolving paths and index keys on every row.
	okNodes := make(map[string]struct{}, t.Tree.Len())
	okProfiles := make(map[dataframe.Value]struct{}, t.Metadata.NRows())
	for r := 0; r < t.PerfData.NRows(); r++ {
		if path := nodeLv.At(r).Str(); !mapHas(okNodes, path) {
			if t.NodeByPathString(path) == nil {
				return fmt.Errorf("core: perf row %d references unknown node %q", r, path)
			}
			okNodes[path] = struct{}{}
		}
		if prof := profLv.At(r); !mapHasValue(okProfiles, prof) {
			if !t.Metadata.Index().Contains([]dataframe.Value{prof}) {
				return fmt.Errorf("core: perf row %d references unknown profile %s", r, prof)
			}
			okProfiles[prof] = struct{}{}
		}
	}
	statsLv := t.Stats.Index().LevelByName(NodeLevel)
	if statsLv == nil {
		return fmt.Errorf("core: stats index must have level %q", NodeLevel)
	}
	for r := 0; r < t.Stats.NRows(); r++ {
		if path := statsLv.At(r).Str(); !mapHas(okNodes, path) {
			if t.NodeByPathString(path) == nil {
				return fmt.Errorf("core: stats row %d references unknown node %q", r, path)
			}
			okNodes[path] = struct{}{}
		}
	}
	return nil
}

func mapHas(m map[string]struct{}, k string) bool {
	_, ok := m[k]
	return ok
}

func mapHasValue(m map[dataframe.Value]struct{}, k dataframe.Value) bool {
	_, ok := m[k]
	return ok
}

// MetricColumns returns the PerfData column keys holding numeric metrics.
func (t *Thicket) MetricColumns() []dataframe.ColKey {
	var out []dataframe.ColKey
	for i := 0; i < t.PerfData.NCols(); i++ {
		k := t.PerfData.ColumnAt(i).Kind()
		if k == dataframe.Float || k == dataframe.Int {
			out = append(out, t.PerfData.ColIndex().Key(i))
		}
	}
	return out
}

// SortedByIndex returns a copy whose PerfData rows are ordered by
// composite (node, profile) key — convenient before table rendering.
func (t *Thicket) SortedByIndex() *Thicket {
	return t.copyWith(t.Tree.Copy(), t.PerfData.SortByIndex(), t.Metadata.Copy(), t.Stats.Copy())
}

// ShortNodeLabels returns a mapping from full node-path index values to
// display labels: the leaf region name when it is unique in the tree,
// else the full path. The paper's tables label rows with bare kernel
// names (e.g. Apps_VOL3D); this reproduces that rendering.
func (t *Thicket) ShortNodeLabels() map[string]string {
	count := map[string]int{}
	for _, n := range t.Tree.Nodes() {
		count[n.Name()]++
	}
	out := make(map[string]string, t.Tree.Len())
	for _, n := range t.Tree.Nodes() {
		p := nodePath(n)
		if count[n.Name()] == 1 {
			out[p] = n.Name()
		} else {
			out[p] = p
		}
	}
	return out
}

// RelabelledPerfData returns a copy of a (node, …)-indexed frame with
// node index values shortened via ShortNodeLabels.
func (t *Thicket) RelabelledPerfData(f *dataframe.Frame) *dataframe.Frame {
	labels := t.ShortNodeLabels()
	out := f.Copy()
	lv := out.Index().LevelByName(NodeLevel)
	if lv == nil {
		return out
	}
	for r := 0; r < lv.Len(); r++ {
		if lbl, ok := labels[lv.At(r).Str()]; ok {
			// Index levels are series; relabeling is safe on a copy.
			if err := lv.Set(r, dataframe.Str(lbl)); err != nil {
				return out
			}
		}
	}
	return out
}

// MetadataSummary groups metadata by the given columns and reports one
// row per unique combination with a trailing "#profiles" count — the
// rendering of the paper's Figures 13 and 16 configuration tables.
func (t *Thicket) MetadataSummary(columns ...string) (*dataframe.Frame, error) {
	groups, err := t.Metadata.GroupBy(columns...)
	if err != nil {
		return nil, err
	}
	b := dataframe.NewBuilder([]string{"config"}, []dataframe.Kind{dataframe.Int})
	for gi, g := range groups {
		cells := make(map[string]dataframe.Value, len(columns)+1)
		for ci, col := range columns {
			cells[col] = g.Key[ci]
		}
		cells["#profiles"] = dataframe.Int64(int64(g.Frame.NRows()))
		if err := b.AddRow([]dataframe.Value{dataframe.Int64(int64(gi))}, cells); err != nil {
			return nil, err
		}
	}
	f, err := b.Build()
	if err != nil {
		return nil, err
	}
	return reorderColumns(f, append(append([]string(nil), columns...), "#profiles"))
}

// TreeString renders the union call tree annotated with an aggregated
// metric (mean across profiles by default) — the display of Figures 8
// and 2.
func (t *Thicket) TreeString(metric dataframe.ColKey) string {
	col, err := t.PerfData.Column(metric)
	if err != nil {
		return t.Tree.Render(nil)
	}
	nodeLv := t.PerfData.Index().LevelByName(NodeLevel)
	sums := map[string]float64{}
	counts := map[string]float64{}
	for r := 0; r < t.PerfData.NRows(); r++ {
		v, ok := col.At(r).AsFloat()
		if !ok {
			continue
		}
		p := nodeLv.At(r).Str()
		sums[p] += v
		counts[p]++
	}
	return t.Tree.Render(func(n *calltree.Node) (string, bool) {
		p := nodePath(n)
		if counts[p] == 0 {
			return "", false
		}
		return fmt.Sprintf("%.3f", sums[p]/counts[p]), true
	})
}
