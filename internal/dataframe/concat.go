package dataframe

import (
	"fmt"

	"repro/internal/telemetry"
)

// Schema is the outer layout of a row concatenation: the index level
// names and kinds, then the data column keys and kinds in output order.
// The zero value is an empty schema ready for Merge.
type Schema struct {
	levels     []string
	levelKinds []Kind
	cols       *ColIndex
	kinds      []Kind
	inputs     int
}

// Merge folds one more input's layout into the schema. The first input
// fixes the index levels (names and kinds); every later one must have
// the same level names. Columns union in first-appearance order, and a
// key met with two different kinds is an error.
func (s *Schema) Merge(levels []string, levelKinds []Kind, keys []ColKey, kinds []Kind) error {
	if s.inputs == 0 {
		s.levels = append([]string(nil), levels...)
		s.levelKinds = append([]Kind(nil), levelKinds...)
		s.cols = &ColIndex{nlevels: 1, lookup: map[string]int{}}
	} else if err := s.checkLevels(s.inputs, levels); err != nil {
		return err
	}
	s.inputs++
	for c, k := range keys {
		if pos := s.cols.Find(k); pos >= 0 {
			if s.kinds[pos] != kinds[c] {
				return fmt.Errorf("dataframe: column %v has conflicting kinds %s and %s", k, s.kinds[pos], kinds[c])
			}
			continue
		}
		if _, err := s.cols.Append(k); err != nil {
			return err
		}
		s.kinds = append(s.kinds, kinds[c])
	}
	return nil
}

// Levels returns the index level names (shared: read-only).
func (s *Schema) Levels() []string { return s.levels }

// NCols reports the number of data columns.
func (s *Schema) NCols() int { return len(s.kinds) }

// Column returns the i-th data column's key (shared: read-only) and kind.
func (s *Schema) Column(i int) (ColKey, Kind) { return s.cols.keys[i], s.kinds[i] }

// checkLevels reports whether input i's index level names match the
// schema's.
func (s *Schema) checkLevels(i int, levels []string) error {
	if len(levels) != len(s.levels) {
		return fmt.Errorf("dataframe: frame %d has %d index levels, want %d", i, len(levels), len(s.levels))
	}
	for l, name := range levels {
		if name != s.levels[l] {
			return fmt.Errorf("dataframe: frame %d index level %d is %q, want %q", i, l, name, s.levels[l])
		}
	}
	return nil
}

// mergeFrame folds f's layout into the schema.
func (s *Schema) mergeFrame(f *Frame) error {
	levelKinds := make([]Kind, f.index.NLevels())
	for l, lv := range f.index.levels {
		levelKinds[l] = lv.kind
	}
	kinds := make([]Kind, len(f.data))
	for c, col := range f.data {
		kinds[c] = col.kind
	}
	return s.Merge(f.index.names, levelKinds, f.cols.keys, kinds)
}

// ConcatRowsOuter stacks row selections of frames under the union of
// their column keys: cells absent from an input are null. sels holds one
// selection per frame (a nil entry, or a nil sels, takes every row).
// With a nil schema the layout comes from the frames — index levels of
// the first, columns in first-appearance order, conflicting kinds an
// error; a non-nil schema is used as resolved, so inputs with no rows
// left need not be passed at all, and it may fix a layout for zero
// frames. Every output column is allocated once and every selected cell
// copied once; string columns get fresh dictionaries holding only the
// words the selected rows use.
func ConcatRowsOuter(schema *Schema, frames []*Frame, sels []Sel) (*Frame, error) {
	if schema == nil {
		if len(frames) == 0 {
			return nil, fmt.Errorf("dataframe: ConcatRowsOuter requires at least one frame")
		}
		schema = &Schema{}
		for _, f := range frames {
			if err := schema.mergeFrame(f); err != nil {
				return nil, err
			}
		}
	} else {
		if schema.inputs == 0 {
			return nil, fmt.Errorf("dataframe: ConcatRowsOuter: empty schema")
		}
		for i, f := range frames {
			if err := schema.checkLevels(i, f.index.names); err != nil {
				return nil, err
			}
		}
	}
	sp := telemetry.StartOp("dataframe.ConcatRowsOuter")
	if sp != nil {
		sp.SetAttr("frames", itoa(len(frames)))
		defer sp.End()
	}
	if sels == nil {
		sels = make([]Sel, len(frames))
	}
	rows := make([]int, len(frames)) // selected rows per frame
	n := 0
	for i, f := range frames {
		rows[i] = len(sels[i])
		if sels[i] == nil {
			rows[i] = f.NRows()
		}
		n += rows[i]
	}
	// src[i][o] is frame i's column under output column o, or -1. The
	// frame's own encoded keys probe the schema: nothing is re-encoded.
	ncols := schema.NCols()
	src := make([][]int, len(frames))
	for i, f := range frames {
		m := make([]int, ncols)
		for o := range m {
			m[o] = -1
		}
		for enc, c := range f.cols.lookup {
			o, ok := schema.cols.lookup[enc]
			if !ok {
				return nil, fmt.Errorf("dataframe: frame %d column %v is not in the schema", i, f.cols.keys[c])
			}
			if k := f.data[c].kind; k != schema.kinds[o] {
				return nil, fmt.Errorf("dataframe: column %v has conflicting kinds %s and %s", f.cols.keys[c], schema.kinds[o], k)
			}
			m[o] = c
		}
		src[i] = m
	}
	gather := func(name string, kind Kind, part func(i int) *Series) (*Series, error) {
		out := newSeriesLen(name, kind, n)
		var words wordTable // a string column's dictionary, published at the end
		off := 0
		for i := range frames {
			switch s := part(i); {
			case s == nil:
				for j := off; j < off+rows[i]; j++ {
					out.null[j] = true
				}
			case s.kind != kind:
				// An index level of another kind appends as typed nulls
				// when every selected cell is null.
				for j := 0; j < rows[i]; j++ {
					r := j
					if sels[i] != nil {
						r = int(sels[i][j])
					}
					if !s.null[r] {
						return nil, fmt.Errorf("dataframe: series %q holds %s, cannot append %s", name, kind, s.kind)
					}
					out.null[off+j] = true
				}
			default:
				out.gatherInto(off, s, sels[i], &words)
			}
			off += rows[i]
		}
		if kind == String {
			out.dict = words.dict()
		}
		return out, nil
	}
	levels := make([]*Series, len(schema.levels))
	for l, name := range schema.levels {
		lv, err := gather(name, schema.levelKinds[l], func(i int) *Series { return frames[i].index.levels[l] })
		if err != nil {
			return nil, err
		}
		levels[l] = lv
	}
	cols := make([]*Series, ncols)
	for o, k := range schema.cols.keys {
		col, err := gather(k.Leaf(), schema.kinds[o], func(i int) *Series {
			if c := src[i][o]; c >= 0 {
				return frames[i].data[c]
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		cols[o] = col
	}
	ix, err := NewIndex(levels...)
	if err != nil {
		return nil, err
	}
	return &Frame{index: ix, cols: schema.cols.Copy(), data: cols}, nil
}

// newSeriesLen returns a series of n zero cells, none null, and no
// dictionary yet for strings.
func newSeriesLen(name string, kind Kind, n int) *Series {
	s := &Series{name: name, kind: kind, null: make([]bool, n)}
	switch kind {
	case Float:
		s.f = make([]float64, n)
	case Int:
		s.i = make([]int64, n)
	case String:
		s.sc = make([]uint32, n)
	case Bool:
		s.b = make([]bool, n)
	}
	return s
}

// gatherInto copies the rows sel of src (every row when sel is nil) into
// s from row off on. Kinds must match. String codes translate into
// words, s's dictionary to be, once per distinct code the rows use.
func (s *Series) gatherInto(off int, src *Series, sel Sel, words *wordTable) {
	if s.kind == String {
		n := len(sel)
		if sel == nil {
			n = src.Len()
		}
		tr := make([]uint32, src.dict.Len()) // source code → target code + 1
		for j := 0; j < n; j++ {
			r := j
			if sel != nil {
				r = int(sel[j])
			}
			if src.null[r] {
				s.null[off+j] = true
				continue
			}
			c := src.sc[r]
			t := tr[c]
			if t == 0 {
				t = words.intern(src.dict.Word(c)) + 1
				tr[c] = t
			}
			s.sc[off+j] = t - 1
		}
		return
	}
	if sel == nil {
		copy(s.null[off:], src.null)
		switch s.kind {
		case Float:
			copy(s.f[off:], src.f)
		case Int:
			copy(s.i[off:], src.i)
		case Bool:
			copy(s.b[off:], src.b)
		}
		return
	}
	for j, r := range sel {
		s.null[off+j] = src.null[r]
	}
	switch s.kind {
	case Float:
		for j, r := range sel {
			s.f[off+j] = src.f[r]
		}
	case Int:
		for j, r := range sel {
			s.i[off+j] = src.i[r]
		}
	case Bool:
		for j, r := range sel {
			s.b[off+j] = src.b[r]
		}
	}
}
