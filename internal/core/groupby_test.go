package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataframe"
	"repro/internal/parallel"
)

// refGroupBy is the per-group reference GroupBy replaced: one
// FilterMetadata — a semi-join and a predicate scan over every row — per
// group, keeping the profiles whose MetaRow values Equal the key.
func refGroupBy(t *Thicket, columns ...string) ([]GroupedThicket, error) {
	groups, err := t.Metadata.GroupBy(columns...)
	if err != nil {
		return nil, err
	}
	out := make([]GroupedThicket, 0, len(groups))
	for _, g := range groups {
		g := g
		sub := t.FilterMetadata(func(m MetaRow) bool {
			for ci, col := range columns {
				if !m.Value(col).Equal(g.Key[ci]) {
					return false
				}
			}
			return true
		})
		out = append(out, GroupedThicket{Key: g.Key, Columns: columns, Thicket: sub})
	}
	return out, nil
}

// groupKeyEnsemble builds a thicket whose grouping columns hold every
// shape the key comparison distinguishes: missing (null) strings, null
// and NaN floats, −0 beside +0, an integer column and, under IndexBy
// "id", a null profile index value.
func groupKeyEnsemble(t *testing.T, seed int64, opts Options) *Thicket {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	profiles := randomEnsemble(seed, 24)
	ratios := []dataframe.Value{dataframe.Float64(0), dataframe.Float64(math.Copysign(0, -1)),
		dataframe.Float64(1.5), dataframe.NaN(), dataframe.Null(dataframe.Float)}
	for _, p := range profiles {
		if rng.Intn(4) == 0 {
			p.SetMeta("group", dataframe.Null(dataframe.String))
		}
		if rng.Intn(5) > 0 {
			p.SetMeta("ratio", ratios[rng.Intn(len(ratios))])
		}
	}
	if opts.IndexBy == "id" {
		// One null profile index: a null level value reads back as a
		// String null, which Equals no Int-keyed group.
		profiles[0].SetMeta("id", dataframe.Null(dataframe.Int))
	}
	th, err := FromProfiles(profiles, opts)
	if err != nil {
		t.Fatal(err)
	}
	return th
}

func assertGroupsEqual(t *testing.T, label string, want, got []GroupedThicket) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d groups, want %d", label, len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if dataframe.EncodeKey(w.Key) != dataframe.EncodeKey(g.Key) || fmt.Sprint(w.Columns) != fmt.Sprint(g.Columns) {
			t.Fatalf("%s: group %d key %v/%v, want %v/%v", label, i, g.Key, g.Columns, w.Key, w.Columns)
		}
		wt, gt := w.Thicket, g.Thicket
		if fmt.Sprint(wt.Tree.Paths()) != fmt.Sprint(gt.Tree.Paths()) || !wt.PerfData.Equal(gt.PerfData) ||
			!wt.Metadata.Equal(gt.Metadata) || !wt.Stats.Equal(gt.Stats) || wt.profileLevel != gt.profileLevel {
			t.Fatalf("%s: group %d (%v) differs from the per-group FilterMetadata", label, i, w.Key)
		}
	}
}

// TestGroupByMatchesPerGroupFilter checks the one-join GroupBy against
// the per-group FilterMetadata reference: null keys, multi-column keys,
// float keys with NaN and signed zeros, an IndexBy profile level, and a
// data column shadowing the index level whose null cells fall back to
// the level value — at several worker counts.
func TestGroupByMatchesPerGroupFilter(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		prev := parallel.Set(workers)
		for seed := int64(1); seed <= 6; seed++ {
			hashed := groupKeyEnsemble(t, seed, Options{})
			byID := groupKeyEnsemble(t, seed, Options{IndexBy: "id"})
			// A data column named like the IndexBy level: half its cells
			// null (they read the level's value), the rest copy another
			// row's id, so a row can match a group its cell does not key.
			n := byID.Metadata.NRows()
			shadow := make([]dataframe.Value, n)
			for r := range shadow {
				shadow[r] = dataframe.Null(dataframe.Int)
				if r%2 == 1 {
					shadow[r] = dataframe.Int64(int64((r + 3) % n))
				}
			}
			col, err := dataframe.SeriesOf("id", shadow)
			if err != nil {
				t.Fatal(err)
			}
			shadowed := byID.Copy()
			if err := shadowed.Metadata.AddColumnWithKey(dataframe.ColKey{"id"}, col); err != nil {
				t.Fatal(err)
			}
			cases := []struct {
				th      *Thicket
				columns []string
			}{
				{hashed, []string{"group"}},
				{hashed, []string{"group", "scale"}},
				{hashed, []string{"ratio"}},
				{hashed, []string{"scale", "ratio", "group"}},
				{byID, []string{"group", "scale"}},
				{byID, []string{"id"}},
				{byID, []string{"ratio", "id"}},
				{shadowed, []string{"id"}},
				{shadowed, []string{"group", "id"}},
			}
			for _, c := range cases {
				label := fmt.Sprintf("workers %d seed %d by %v", workers, seed, c.columns)
				want, err := refGroupBy(c.th, c.columns...)
				if err != nil {
					t.Fatal(err)
				}
				got, err := c.th.GroupBy(c.columns...)
				if err != nil {
					t.Fatal(err)
				}
				assertGroupsEqual(t, label, want, got)
			}
		}
		parallel.Set(prev)
	}
}
