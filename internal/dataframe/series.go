package dataframe

import (
	"fmt"
	"math"
)

// Series is a named, typed column of values with a null mask. Storage is
// kind-specialized so numeric scans do not box; String columns are
// dictionary-encoded (per-row uint32 codes into a shared *Dict), so
// grouping, joining, and serialization of string keys reduce to integer
// operations.
type Series struct {
	name string
	kind Kind
	f    []float64
	i    []int64
	sc   []uint32 // String: per-row dict codes
	dict *Dict    // String: shared append-only dictionary
	b    []bool
	null []bool
}

// NewSeries returns an empty series of the given name and kind.
func NewSeries(name string, kind Kind) *Series {
	s := &Series{name: name, kind: kind}
	if kind == String {
		s.dict = NewDict()
	}
	return s
}

// NewFloatSeries builds a float series from data; NaNs become nulls.
func NewFloatSeries(name string, data []float64) *Series {
	s := &Series{name: name, kind: Float, f: append([]float64(nil), data...), null: make([]bool, len(data))}
	for idx, v := range data {
		if math.IsNaN(v) {
			s.null[idx] = true
		}
	}
	return s
}

// NewIntSeries builds an int series from data.
func NewIntSeries(name string, data []int64) *Series {
	return &Series{name: name, kind: Int, i: append([]int64(nil), data...), null: make([]bool, len(data))}
}

// NewStringSeries builds a string series from data.
func NewStringSeries(name string, data []string) *Series {
	s := &Series{name: name, kind: String, sc: make([]uint32, len(data)), null: make([]bool, len(data))}
	var w wordTable
	for idx, v := range data {
		s.sc[idx] = w.intern(v)
	}
	s.dict = w.dict()
	return s
}

// NewStringSeriesFromCodes builds a string series directly from a
// dictionary and per-row codes — the zero-re-interning path used by the
// store's dictionary pages. nulls may be nil (no nulls). The dict and
// code slice are adopted, not copied; every non-null code must be in
// range for dict.
func NewStringSeriesFromCodes(name string, dict *Dict, codes []uint32, nulls []bool) (*Series, error) {
	if dict == nil {
		return nil, fmt.Errorf("dataframe: series %q: nil dict", name)
	}
	if nulls == nil {
		nulls = make([]bool, len(codes))
	}
	if len(nulls) != len(codes) {
		return nil, fmt.Errorf("dataframe: series %q: %d codes but %d null flags", name, len(codes), len(nulls))
	}
	n := uint32(dict.Len())
	for i, c := range codes {
		if !nulls[i] && c >= n {
			return nil, fmt.Errorf("dataframe: series %q: code %d out of range (dict has %d words)", name, c, n)
		}
	}
	return &Series{name: name, kind: String, dict: dict, sc: codes, null: nulls}, nil
}

// NewBoolSeries builds a bool series from data.
func NewBoolSeries(name string, data []bool) *Series {
	return &Series{name: name, kind: Bool, b: append([]bool(nil), data...), null: make([]bool, len(data))}
}

// SeriesOf builds a series from Values. All non-null values must share the
// kind of the first non-null value; nulls adopt that kind.
func SeriesOf(name string, vals []Value) (*Series, error) {
	kind := Float
	found := false
	for _, v := range vals {
		if !v.IsNull() {
			kind = v.Kind()
			found = true
			break
		}
	}
	if !found && len(vals) > 0 {
		kind = vals[0].Kind()
	}
	s := NewSeries(name, kind)
	for _, v := range vals {
		if err := s.Append(v); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// Kind returns the scalar kind of the series.
func (s *Series) Kind() Kind { return s.kind }

// Len returns the number of rows.
func (s *Series) Len() int { return len(s.null) }

// Rename returns the series with a new name (mutates in place, returns s).
func (s *Series) Rename(name string) *Series {
	s.name = name
	return s
}

// StringData exposes a String series' dictionary encoding: the shared
// dictionary and the per-row codes (meaningful only where the null mask
// is clear). Both are shared storage — treat as read-only. Returns
// (nil, nil) for non-string series.
func (s *Series) StringData() (*Dict, []uint32) {
	if s.kind != String {
		return nil, nil
	}
	return s.dict, s.sc
}

// Nulls returns the series' null mask (shared storage; treat as
// read-only). Float NaN cells are additionally null by IsNull semantics.
func (s *Series) Nulls() []bool { return s.null }

// FloatData exposes a Float series' packed values (meaningful only where
// the null mask is clear, and a stored NaN is null regardless of the
// mask). Shared storage — treat as read-only. Nil for other kinds.
func (s *Series) FloatData() []float64 {
	if s.kind != Float {
		return nil
	}
	return s.f
}

// IntData exposes an Int series' packed values (meaningful only where
// the null mask is clear). Shared storage — treat as read-only. Nil for
// other kinds.
func (s *Series) IntData() []int64 {
	if s.kind != Int {
		return nil
	}
	return s.i
}

// BoolData exposes a Bool series' packed values (meaningful only where
// the null mask is clear). Shared storage — treat as read-only. Nil for
// other kinds.
func (s *Series) BoolData() []bool {
	if s.kind != Bool {
		return nil
	}
	return s.b
}

// At returns the value at row idx.
func (s *Series) At(idx int) Value {
	if s.null[idx] {
		return Null(s.kind)
	}
	switch s.kind {
	case Float:
		return Float64(s.f[idx])
	case Int:
		return Int64(s.i[idx])
	case String:
		return Str(s.dict.Word(s.sc[idx]))
	case Bool:
		return BoolVal(s.b[idx])
	}
	return Null(s.kind)
}

// FloatAt returns the row coerced to float64 (NaN when null/unparseable).
func (s *Series) FloatAt(idx int) float64 {
	f, _ := s.At(idx).AsFloat()
	return f
}

// Append adds a value to the end of the series. A null of any kind is
// accepted; a non-null value must match the series kind.
func (s *Series) Append(v Value) error {
	if !v.IsNull() && v.Kind() != s.kind {
		return fmt.Errorf("dataframe: series %q holds %s, cannot append %s", s.name, s.kind, v.Kind())
	}
	s.null = append(s.null, v.IsNull())
	switch s.kind {
	case Float:
		s.f = append(s.f, v.f)
	case Int:
		s.i = append(s.i, v.i)
	case String:
		var c uint32
		if !v.IsNull() {
			c = s.dict.Intern(v.s)
		}
		s.sc = append(s.sc, c)
	case Bool:
		s.b = append(s.b, v.b)
	}
	return nil
}

// AppendNulls extends the series with n null cells.
func (s *Series) AppendNulls(n int) {
	for i := 0; i < n; i++ {
		s.null = append(s.null, true)
	}
	switch s.kind {
	case Float:
		s.f = append(s.f, make([]float64, n)...)
	case Int:
		s.i = append(s.i, make([]int64, n)...)
	case String:
		s.sc = append(s.sc, make([]uint32, n)...)
	case Bool:
		s.b = append(s.b, make([]bool, n)...)
	}
}

// AppendSeries bulk-appends every cell of o. Kinds must match. For
// string columns the two dictionaries are reconciled once per distinct
// word (a translation table), not once per row.
func (s *Series) AppendSeries(o *Series) error {
	if o.kind != s.kind {
		// A fully-null column of any kind appends as typed nulls,
		// mirroring per-cell Append semantics.
		if o.NullCount() == o.Len() {
			s.AppendNulls(o.Len())
			return nil
		}
		return fmt.Errorf("dataframe: series %q holds %s, cannot append %s", s.name, s.kind, o.kind)
	}
	s.null = append(s.null, o.null...)
	switch s.kind {
	case Float:
		s.f = append(s.f, o.f...)
	case Int:
		s.i = append(s.i, o.i...)
	case String:
		if o.dict == s.dict {
			s.sc = append(s.sc, o.sc...)
			return nil
		}
		// Translate o's codes into s's dictionary: one intern per
		// distinct word in o's dict, then O(rows) integer copies.
		words := o.dict.Words()
		tr := make([]uint32, len(words))
		for c, w := range words {
			tr[c] = s.dict.Intern(w)
		}
		base := len(s.sc)
		s.sc = append(s.sc, make([]uint32, len(o.sc))...)
		for j, c := range o.sc {
			if !o.null[j] {
				s.sc[base+j] = tr[c]
			}
		}
	case Bool:
		s.b = append(s.b, o.b...)
	}
	return nil
}

// Set replaces the value at row idx.
func (s *Series) Set(idx int, v Value) error {
	if !v.IsNull() && v.Kind() != s.kind {
		return fmt.Errorf("dataframe: series %q holds %s, cannot set %s", s.name, s.kind, v.Kind())
	}
	s.null[idx] = v.IsNull()
	switch s.kind {
	case Float:
		s.f[idx] = v.f
	case Int:
		s.i[idx] = v.i
	case String:
		if v.IsNull() {
			s.sc[idx] = 0
		} else {
			s.sc[idx] = s.dict.Intern(v.s)
		}
	case Bool:
		s.b[idx] = v.b
	}
	return nil
}

// Gather returns a new series containing the given rows in order. String
// gathers copy codes and share the dictionary — no string traffic.
func (s *Series) Gather(rows []int) *Series {
	out := &Series{name: s.name, kind: s.kind, null: make([]bool, len(rows))}
	switch s.kind {
	case Float:
		out.f = make([]float64, len(rows))
		for j, r := range rows {
			out.f[j] = s.f[r]
			out.null[j] = s.null[r]
		}
	case Int:
		out.i = make([]int64, len(rows))
		for j, r := range rows {
			out.i[j] = s.i[r]
			out.null[j] = s.null[r]
		}
	case String:
		out.dict = s.dict
		out.sc = make([]uint32, len(rows))
		for j, r := range rows {
			out.sc[j] = s.sc[r]
			out.null[j] = s.null[r]
		}
	case Bool:
		out.b = make([]bool, len(rows))
		for j, r := range rows {
			out.b[j] = s.b[r]
			out.null[j] = s.null[r]
		}
	}
	return out
}

// Copy returns a deep copy of the series. The string dictionary is
// shared: it is append-only, so growth through one series never changes
// what another series' codes decode to.
func (s *Series) Copy() *Series {
	out := &Series{name: s.name, kind: s.kind, dict: s.dict}
	out.f = append([]float64(nil), s.f...)
	out.i = append([]int64(nil), s.i...)
	out.sc = append([]uint32(nil), s.sc...)
	out.b = append([]bool(nil), s.b...)
	out.null = append([]bool(nil), s.null...)
	return out
}

// Floats returns the column coerced to float64 (NaN for nulls). The slice
// is freshly allocated.
func (s *Series) Floats() []float64 {
	out := make([]float64, s.Len())
	for i := range out {
		out[i] = s.FloatAt(i)
	}
	return out
}

// Values returns all cells as boxed Values (freshly allocated).
func (s *Series) Values() []Value {
	out := make([]Value, s.Len())
	for i := range out {
		out[i] = s.At(i)
	}
	return out
}

// Uniques returns distinct non-null values in first-appearance order.
func (s *Series) Uniques() []Value {
	cc := encodeSeries(s)
	defer cc.release()
	seen := make([]bool, cc.space+1)
	var out []Value
	for i, c := range cc.codes {
		if c == nullCode || seen[c] {
			continue
		}
		seen[c] = true
		out = append(out, s.At(i))
	}
	return out
}

// NullCount reports the number of missing cells.
func (s *Series) NullCount() int {
	n := 0
	for i := range s.null {
		if s.null[i] || (s.kind == Float && math.IsNaN(s.f[i])) {
			n++
		}
	}
	return n
}

// Equal reports whether two series have identical name, kind, and cells.
func (s *Series) Equal(o *Series) bool {
	if s.name != o.name || s.kind != o.kind || s.Len() != o.Len() {
		return false
	}
	for i := 0; i < s.Len(); i++ {
		if !s.At(i).Equal(o.At(i)) {
			return false
		}
	}
	return true
}
