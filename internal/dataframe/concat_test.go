package dataframe

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// frameBits renders every cell — index levels, then columns under their
// keys — with its kind and null flag and, for floats, the bit pattern,
// so −0 and +0 (which Value.Equal identifies) and NaN payloads differ.
func frameBits(f *Frame) string {
	var sb strings.Builder
	series := func(label string, s *Series) {
		fmt.Fprintf(&sb, "%s %s %s:", label, s.Name(), s.Kind())
		for r := 0; r < s.Len(); r++ {
			v := s.At(r)
			switch {
			case s.null[r]:
				sb.WriteString(" null")
			case s.kind == Float:
				fmt.Fprintf(&sb, " %x", math.Float64bits(s.f[r]))
			default:
				fmt.Fprintf(&sb, " %q", v.String())
			}
		}
		sb.WriteByte('\n')
	}
	for l := 0; l < f.Index().NLevels(); l++ {
		series("level", f.Index().Level(l))
	}
	for c := 0; c < f.NCols(); c++ {
		series(f.ColIndex().Key(c).String(), f.ColumnAt(c))
	}
	return sb.String()
}

// randomSel draws an ascending selection of n rows: nil (every row), the
// empty selection, or a random subset.
func randomSel(rng *rand.Rand, n int) Sel {
	switch rng.Intn(5) {
	case 0:
		return nil
	case 1:
		return Sel{}
	}
	sel := Sel{}
	for r := 0; r < n; r++ {
		if rng.Intn(3) > 0 {
			sel = append(sel, uint32(r))
		}
	}
	return sel
}

// TestConcatRowsOuterSelections checks the gather path of the outer
// concatenation — per-frame selections, with the schema taken from the
// frames or passed in resolved — against concatenating SelectRows copies,
// bit for bit: drifting schemas, strings on shared and unshared
// dictionaries, nulls, NaN, −0 beside +0, and the kind-conflict error.
func TestConcatRowsOuterSelections(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(500 + seed))
		base := diffFrame(rng, 50, false)
		ratio, _ := base.ColumnByName("ratio")
		for r := 0; r < base.NRows(); r += 5 {
			ratio.Set(r, Float64(math.Copysign(0, -1)))
		}
		// shared: a gather of base, so its string columns share base's
		// dictionaries; drift: its own dictionaries, fewer columns in
		// another order; extra: a column no other frame has.
		shared := base.SelectRows([]int{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5})
		drift, err := diffFrame(rng, 30, false).SelectColumns([]ColKey{{"time"}, {"group"}})
		if err != nil {
			t.Fatal(err)
		}
		extra := diffFrame(rng, 20, false)
		words := make([]string, extra.NRows())
		for r := range words {
			words[r] = fmt.Sprintf("w%d", rng.Intn(4))
		}
		if err := extra.AddColumnWithKey(ColKey{"note"}, NewStringSeries("note", words)); err != nil {
			t.Fatal(err)
		}
		frames := []*Frame{base, shared, drift, extra, base.SelectRows(nil)}
		sels := make([]Sel, len(frames))
		picked := make([]*Frame, len(frames))
		for i, f := range frames {
			sels[i] = randomSel(rng, f.NRows())
			picked[i] = f
			if sels[i] != nil {
				picked[i] = f.SelectRows(SelToRows(sels[i]))
			}
		}
		want, err := ConcatRowsOuter(nil, picked, nil)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := refConcatRowsOuter(picked...)
		if err != nil {
			t.Fatal(err)
		}
		if !ref.Equal(want) {
			t.Fatalf("seed %d: all-rows concatenation differs from the per-cell reference", seed)
		}
		got, err := ConcatRowsOuter(nil, frames, sels)
		if err != nil {
			t.Fatal(err)
		}
		if frameBits(got) != frameBits(want) {
			t.Fatalf("seed %d: selections differ from concatenating SelectRows copies:\n%s\nwant\n%s", seed, frameBits(got), frameBits(want))
		}
		// A resolved schema lets frames with nothing selected drop out.
		var schema Schema
		var kept []*Frame
		var keptSels []Sel
		for i, f := range frames {
			if err := schema.mergeFrame(f); err != nil {
				t.Fatal(err)
			}
			if sels[i] == nil || len(sels[i]) > 0 {
				kept, keptSels = append(kept, f), append(keptSels, sels[i])
			}
		}
		got, err = ConcatRowsOuter(&schema, kept, keptSels)
		if err != nil {
			t.Fatal(err)
		}
		if frameBits(got) != frameBits(want) {
			t.Fatalf("seed %d: resolved schema differs:\n%s\nwant\n%s", seed, frameBits(got), frameBits(want))
		}
		// The output shares no dictionary with an input.
		for c := 0; c < got.NCols(); c++ {
			if d, _ := got.ColumnAt(c).StringData(); d != nil {
				for _, f := range frames {
					for fc := 0; fc < f.NCols(); fc++ {
						if fd, _ := f.ColumnAt(fc).StringData(); fd == d {
							t.Fatalf("seed %d: column %v shares an input dictionary", seed, got.ColIndex().Key(c))
						}
					}
				}
			}
		}
	}

	// A key met with two kinds errors on both paths.
	rng := rand.New(rand.NewSource(9))
	a := diffFrame(rng, 10, false)
	conflict := MustFrame(MustIndex(NewStringSeries("node", []string{"x"}), NewIntSeries("trial", []int64{0})),
		NewStringSeries("time", []string{"late"}))
	if _, err := ConcatRowsOuter(nil, []*Frame{a, conflict}, []Sel{{}, {}}); err == nil || !strings.Contains(err.Error(), "conflicting kinds") {
		t.Fatalf("conflicting kinds with empty selections: err = %v", err)
	}
	var schema Schema
	if err := schema.mergeFrame(a); err != nil {
		t.Fatal(err)
	}
	if _, err := ConcatRowsOuter(&schema, []*Frame{conflict}, nil); err == nil || !strings.Contains(err.Error(), "conflicting kinds") {
		t.Fatalf("frame against a resolved schema of another kind: err = %v", err)
	}
}
