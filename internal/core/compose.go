package core

import (
	"fmt"

	"repro/internal/calltree"
	"repro/internal/dataframe"
	"repro/internal/parallel"
)

// Compose hierarchically composes thickets with the same index structure
// into one thicket with an additional column-index level (paper §3.2.2,
// Figure 4): the performance data is inner-joined on the (node, profile)
// hierarchical index — only keys present in every input survive — and
// each input's metric columns are nested under its group label (e.g.
// "CPU", "GPU").
//
// The composed metadata is the first input's, restricted to surviving
// profile-index values; per-group execution context stays available in
// the inputs. The composed stats table starts empty.
func Compose(groups []string, thickets []*Thicket) (*Thicket, error) {
	if len(groups) != len(thickets) {
		return nil, fmt.Errorf("core: %d group labels for %d thickets", len(groups), len(thickets))
	}
	if len(thickets) < 2 {
		return nil, fmt.Errorf("core: Compose requires at least two thickets")
	}
	seen := map[string]bool{}
	for _, g := range groups {
		if seen[g] {
			return nil, fmt.Errorf("core: duplicate group label %q", g)
		}
		seen[g] = true
	}
	first := thickets[0]
	for i, th := range thickets[1:] {
		if th.profileLevel != first.profileLevel {
			return nil, fmt.Errorf("core: thicket %d uses profile level %q, want %q (compose requires the same hierarchical index)", i+1, th.profileLevel, first.profileLevel)
		}
	}

	frames := make([]*dataframe.Frame, len(thickets))
	trees := make([]*calltree.Tree, len(thickets))
	for i, th := range thickets {
		frames[i] = th.PerfData
		trees[i] = th.Tree
	}
	perf, err := dataframe.InnerJoinOnIndex(groups, frames)
	if err != nil {
		return nil, err
	}
	tree := calltree.Intersect(trees...)

	// Surviving profile-index values: encode per-profile rows in chunk
	// parallel, then union the partials (set union is order-insensitive).
	profLv := perf.Index().LevelByName(first.profileLevel)
	if profLv == nil {
		return nil, fmt.Errorf("core: composed index lacks level %q", first.profileLevel)
	}
	parts := parallel.MapChunks(profLv.Len(), func(lo, hi int) map[string]bool {
		part := make(map[string]bool)
		for r := lo; r < hi; r++ {
			part[dataframe.EncodeKey([]dataframe.Value{profLv.At(r)})] = true
		}
		return part
	})
	keep := map[string]bool{}
	for _, part := range parts {
		for enc := range part {
			keep[enc] = true
		}
	}
	meta := first.Metadata.Filter(func(r dataframe.Row) bool {
		return keep[dataframe.EncodeKey(first.Metadata.Index().KeyAt(r.Pos()))]
	})

	return &Thicket{
		Tree:         tree,
		PerfData:     perf,
		Metadata:     meta,
		Stats:        emptyStats(tree),
		profileLevel: first.profileLevel,
	}, nil
}

// ConcatProfiles vertically concatenates thickets over the union of
// their profiles: the trees are unioned and the metadata/performance
// tables stacked under the union of their schemas (missing cells are
// null). Profile-index values must be distinct across inputs. It is
// Gather's all-rows case.
func ConcatProfiles(thickets []*Thicket) (*Thicket, error) {
	if len(thickets) == 0 {
		return nil, fmt.Errorf("core: no thickets")
	}
	trees := make([]*calltree.Tree, len(thickets))
	parts := make([]Part, len(thickets))
	for i, th := range thickets {
		trees[i] = th.Tree
		parts[i] = Part{Thicket: th}
	}
	return Gather(Layout{Tree: calltree.Union(trees...), ProfileLevel: thickets[0].profileLevel}, parts, nil)
}

// Layout fixes what a gathered thicket looks like before any row is
// copied: the call tree it adopts, its profile level, and optionally the
// perf-data and metadata schemas (nil resolves one from the parts'
// frames, in part order).
type Layout struct {
	Tree         *calltree.Tree
	ProfileLevel string
	Perf, Meta   *dataframe.Schema
}

// Part is one input of Gather: a thicket and the rows of it to keep, as
// ascending selections over its perf data and its metadata (nil keeps
// every row).
type Part struct {
	Thicket    *Thicket
	Perf, Meta dataframe.Sel
}

// Gather builds one thicket from row selections of parts: each frame is
// one dataframe.ConcatRowsOuter, so every selected cell is copied once
// and nothing of a part is shared with the result. The result adopts
// lay.Tree and stats (nil gets the empty stats table over the tree).
// Profile-index values must be distinct across the selected metadata.
func Gather(lay Layout, parts []Part, stats *dataframe.Frame) (*Thicket, error) {
	perfs := make([]*dataframe.Frame, len(parts))
	metas := make([]*dataframe.Frame, len(parts))
	perfSels := make([]dataframe.Sel, len(parts))
	metaSels := make([]dataframe.Sel, len(parts))
	for i, p := range parts {
		if p.Thicket.profileLevel != lay.ProfileLevel {
			return nil, fmt.Errorf("core: thicket %d uses profile level %q, want %q", i, p.Thicket.profileLevel, lay.ProfileLevel)
		}
		perfs[i], metas[i] = p.Thicket.PerfData, p.Thicket.Metadata
		perfSels[i], metaSels[i] = p.Perf, p.Meta
	}
	perf, err := dataframe.ConcatRowsOuter(lay.Perf, perfs, perfSels)
	if err != nil {
		return nil, fmt.Errorf("core: perf data: %w", err)
	}
	meta, err := dataframe.ConcatRowsOuter(lay.Meta, metas, metaSels)
	if err != nil {
		return nil, fmt.Errorf("core: metadata: %w", err)
	}
	if meta.Index().HasDuplicates() {
		return nil, fmt.Errorf("core: concatenated thickets share profile-index values")
	}
	if stats == nil {
		stats = emptyStats(lay.Tree)
	}
	return &Thicket{
		Tree:         lay.Tree,
		PerfData:     perf,
		Metadata:     meta,
		Stats:        stats,
		profileLevel: lay.ProfileLevel,
	}, nil
}
