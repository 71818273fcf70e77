package plan

import (
	"context"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/dataframe"
	"repro/internal/store"
)

// ExecStats describes what one execution touched: how many segments the
// zone maps pruned outright, how many blocks were decoded versus skipped,
// and how many rows survived into materialized frames. The server exports
// these per endpoint; the bit-identity tests assert on them.
type ExecStats struct {
	Segments         int `json:"segments"`          // segments in the snapshot
	SegmentsPruned   int `json:"segments_pruned"`   // segments skipped whole on header evidence
	BlocksScanned    int `json:"blocks_scanned"`    // meta+perf blocks decoded (survivor segments)
	BlocksSkipped    int `json:"blocks_skipped"`    // meta+perf blocks never read (pruned segments)
	RowsScanned      int `json:"rows_scanned"`      // metadata rows evaluated by filter kernels
	RowsMaterialized int `json:"rows_materialized"` // metadata rows surviving all predicates
	Rows             int `json:"rows"`              // total metadata rows in the store/thicket
}

// execMode selects how much an execution does and records.
type execMode uint8

const (
	// execRun is the plain hot path: no plan tree, no timestamps.
	execRun execMode = iota
	// execAnalyze executes fully and records the Explain tree with
	// measured block counts and stage times.
	execAnalyze
	// execPlanOnly stops after the prune verdicts: no block decodes, no
	// materialization; scanned counts are would-decode estimates.
	execPlanOnly
)

// ExecuteThicket runs the compiled filter against an already-resident
// thicket: predicates are validated and evaluated vectorized over the
// metadata frame, then the selection mask drives one FilterMetadata
// pass. Bit-identical to NaiveFilter by construction and by test.
func ExecuteThicket(th *core.Thicket, preds []Predicate) (*core.Thicket, ExecStats, error) {
	out, es, _, err := executeThicket(context.Background(), th, preds, execRun)
	return out, es, err
}

// ExecuteThicketCtx is ExecuteThicket with a cancellation context.
func ExecuteThicketCtx(ctx context.Context, th *core.Thicket, preds []Predicate) (*core.Thicket, ExecStats, error) {
	out, es, _, err := executeThicket(ctx, th, preds, execRun)
	return out, es, err
}

// AnalyzeThicket executes the resident-thicket filter and returns the
// result together with its plan tree (EXPLAIN ANALYZE).
func AnalyzeThicket(ctx context.Context, th *core.Thicket, preds []Predicate) (*core.Thicket, *Explain, error) {
	out, _, ex, err := executeThicket(ctx, th, preds, execAnalyze)
	return out, ex, err
}

// PlanThicket validates the predicates against the resident thicket and
// returns the plan tree without executing (EXPLAIN). A resident thicket
// has no segments to prune, so the tree only reports the row count.
func PlanThicket(ctx context.Context, th *core.Thicket, preds []Predicate) (*Explain, error) {
	_, _, ex, err := executeThicket(ctx, th, preds, execPlanOnly)
	return ex, err
}

func executeThicket(ctx context.Context, th *core.Thicket, preds []Predicate, mode execMode) (*core.Thicket, ExecStats, *Explain, error) {
	collect := mode != execRun
	var ex *Explain
	if collect {
		ex = &Explain{Where: Describe(preds), Mode: "thicket", Analyzed: mode == execAnalyze}
	}
	var st ExecStats
	st.Rows = th.Metadata.NRows()
	finish := func(err error) (*core.Thicket, ExecStats, *Explain, error) {
		if ex != nil {
			ex.Stats = st
		}
		return nil, st, ex, err
	}
	if err := Validate(th.Metadata, preds); err != nil {
		return finish(err)
	}
	if err := ctx.Err(); err != nil {
		return finish(err)
	}
	if len(preds) == 0 || mode == execPlanOnly {
		if mode == execPlanOnly {
			// Would-scan estimate: a resident thicket always evaluates
			// every row; nothing materializes without executing.
			st.RowsScanned = st.Rows
			if len(preds) == 0 {
				st.RowsMaterialized = st.Rows
			}
		} else {
			st.RowsMaterialized = st.Rows
		}
		if ex != nil {
			ex.Stats = st
		}
		return th, st, ex, nil
	}
	st.RowsScanned = st.Rows
	stageTo(ctx, StageFilter)
	var t time.Time
	if collect {
		t = time.Now()
	}
	sel := evalFrame(th.Metadata, preds)
	if collect {
		ex.Stages.FilterNS += time.Since(t).Nanoseconds()
		t = time.Now()
	}
	st.RowsMaterialized = len(sel)
	stageTo(ctx, StageMaterialize)
	mask := make([]bool, th.Metadata.NRows())
	for _, r := range sel {
		mask[r] = true
	}
	out := th.FilterMetadata(func(m core.MetaRow) bool { return mask[m.Pos()] })
	if collect {
		ex.Stages.MaterializeNS += time.Since(t).Nanoseconds()
		ex.Stats = st
	}
	return out, st, ex, nil
}

// evalFrame evaluates the conjunction over one metadata frame with the
// frame's own name resolution (exact key first, then unambiguous leaf),
// returning the surviving row selection. Resolution failures reproduce
// Row.Value's behavior — the cell reads as a String null — and the
// index-level fallback applies wherever the column cell is null.
func evalFrame(meta *dataframe.Frame, preds []Predicate) dataframe.Sel {
	n := meta.NRows()
	var sel dataframe.Sel
	for i := range preds {
		p := preds[i]
		lvl := meta.Index().LevelByName(p.Column)
		col, err := meta.ColumnByName(p.Column)
		switch {
		case err != nil && lvl != nil:
			sel = filterPlain(sel, lvl, p)
		case err != nil:
			sel = dataframe.FilterConst(sel, n, p.Matches(dataframe.Null(dataframe.String)))
		case lvl == nil:
			sel = filterPlain(sel, col, p)
		default:
			// Composite: a data column shadowed by a same-named index
			// level; null cells fall through to the level value.
			sel = dataframe.FilterFunc(sel, n, func(r int) bool {
				v := col.At(r)
				if v.IsNull() {
					v = lvl.At(r)
				}
				return p.Matches(v)
			})
		}
		if len(sel) == 0 && sel != nil {
			break
		}
	}
	if sel == nil {
		sel = dataframe.FilterConst(nil, n, true)
	}
	return sel
}

// filterPlain dispatches one predicate over one series to the vectorized
// kernel matching its kind, falling back to boxed evaluation for the
// shapes that have no packed form (numeric columns compared against a
// non-numeric literal render row by row).
func filterPlain(sel dataframe.Sel, s *dataframe.Series, p Predicate) dataframe.Sel {
	nulls := s.Nulls()
	switch s.Kind() {
	case dataframe.Float:
		if p.rhsOK {
			return dataframe.FilterFloat64(sel, s.FloatData(), nulls, p.cmp, p.rhs, p.Matches(dataframe.Null(dataframe.Float)))
		}
	case dataframe.Int:
		if p.rhsOK {
			return dataframe.FilterInt64(sel, s.IntData(), nulls, p.cmp, p.rhs, p.Matches(dataframe.Null(dataframe.Int)))
		}
	case dataframe.Bool:
		return dataframe.FilterBools(sel, s.BoolData(), nulls,
			p.Matches(dataframe.BoolVal(true)),
			p.Matches(dataframe.BoolVal(false)),
			p.Matches(dataframe.Null(dataframe.Bool)))
	case dataframe.String:
		if dict, codes := s.StringData(); dict != nil {
			match := make([]bool, dict.Len())
			for c := range match {
				match[c] = p.Matches(dataframe.Str(dict.Word(uint32(c))))
			}
			return dataframe.FilterCodes(sel, codes, nulls, match, p.Matches(dataframe.Null(dataframe.String)))
		}
	}
	return dataframe.FilterFunc(sel, s.Len(), func(r int) bool { return p.Matches(s.At(r)) })
}

// colResolution is where a predicate's column lands in the union schema
// the naive path would have concatenated: a specific full key, an
// ambiguous leaf, or nothing — plus whether an index level shares the
// name. Computed once per query from segment headers alone.
type colResolution struct {
	mode  resolveMode
	key   dataframe.ColKey // set when mode == resolveKey
	kind  dataframe.Kind   // union kind of key (null-fill kind)
	level string           // index level of the same name, "" if none
}

type resolveMode uint8

const (
	resolveKey resolveMode = iota
	resolveAbsent
	resolveAmbiguous
)

// ExecuteStore runs the compiled filter directly against the store's
// segments: predicates resolve against the union schema assembled from
// headers, zone maps and dictionary pages prune whole segments before
// any block decodes, survivors evaluate vectorized, and only surviving
// rows materialize. The result is bit-identical to
// NaiveFilter(store.Load()) — same frames, same row order, same errors
// on unknown columns.
func ExecuteStore(st *store.Store, preds []Predicate) (*core.Thicket, ExecStats, error) {
	out, es, _, err := executeStore(context.Background(), st, preds, execRun)
	return out, es, err
}

// ExecuteStoreCtx is ExecuteStore with a cancellation context, checked
// at segment and block boundaries; progress flows to the context's
// plan.Progress and store.ScanObserver hooks.
func ExecuteStoreCtx(ctx context.Context, st *store.Store, preds []Predicate) (*core.Thicket, ExecStats, error) {
	out, es, _, err := executeStore(ctx, st, preds, execRun)
	return out, es, err
}

// AnalyzeStore executes the pushdown filter and returns the result
// together with its measured plan tree (EXPLAIN ANALYZE): per-segment
// verdicts with the deciding predicate, per-column block accounting,
// and per-stage wall times. The filtered thicket and ExecStats are
// bit-identical to ExecuteStore's.
func AnalyzeStore(ctx context.Context, st *store.Store, preds []Predicate) (*core.Thicket, *Explain, error) {
	out, _, ex, err := executeStore(ctx, st, preds, execAnalyze)
	return out, ex, err
}

// PlanStore computes the prune verdicts from headers alone and returns
// the plan tree without decoding a single block (EXPLAIN): segment
// verdicts and deciding predicates are exact, scanned-segment block and
// row counts are the would-decode estimates.
func PlanStore(ctx context.Context, st *store.Store, preds []Predicate) (*Explain, error) {
	_, _, ex, err := executeStore(ctx, st, preds, execPlanOnly)
	return ex, err
}

func executeStore(ctx context.Context, st *store.Store, preds []Predicate, mode execMode) (*core.Thicket, ExecStats, *Explain, error) {
	collect := mode != execRun
	var ex *Explain
	var colIdx explainCols
	if collect {
		ex = &Explain{Where: Describe(preds), Mode: "store", Analyzed: mode == execAnalyze}
		colIdx = explainCols{}
	}
	var es ExecStats
	var stages StageTimes
	finish := func(err error) (*core.Thicket, ExecStats, *Explain, error) {
		if ex != nil {
			ex.Stats, ex.Stages = es, stages
		}
		return nil, es, ex, err
	}
	if len(preds) == 0 && mode != execPlanOnly {
		th, err := st.LoadCtx(ctx)
		if err != nil {
			return finish(err)
		}
		es.Rows = th.Metadata.NRows()
		es.RowsMaterialized = es.Rows
		if collect {
			// Even an unfiltered analyze reports the segment layout: every
			// segment scanned, no predicate to prune with.
			describeUnfiltered(st, &es, ex, colIdx)
			ex.Stats = es
		}
		return th, es, ex, nil
	}
	sn := st.Snapshot()
	defer sn.Release()
	nseg := sn.NumSegments()
	es.Segments = nseg
	if nseg == 0 {
		_, err := st.Load() // reproduce the canonical empty-store error
		return finish(err)
	}

	// stamp/lap meter the stages only when a tree is being collected —
	// the hot path takes zero timestamps.
	var mark time.Time
	stamp := func() {
		if collect {
			mark = time.Now()
		}
	}
	lap := func(dst *int64) {
		if collect {
			now := time.Now()
			*dst += now.Sub(mark).Nanoseconds()
			mark = now
		}
	}

	stageTo(ctx, StagePrune)
	stamp()
	lay, err := sn.Layout(ctx)
	if err != nil {
		return finish(err)
	}
	res, err := resolveUnion(lay.Meta, preds)
	if err != nil {
		return finish(err)
	}

	// Surviving segments contribute their store-owned assemblies with a
	// metadata selection and the perf selection it induces; pruned ones
	// contribute only through the layout's tree and schemas. One gather
	// at the end copies every surviving cell exactly once.
	withStats := nseg == 1
	var parts []core.Part
	var stats *dataframe.Frame
	for i := 0; i < nseg; i++ {
		if err := ctx.Err(); err != nil {
			return finish(err)
		}
		sv := sn.Segment(i)
		nrows := sv.NRows(store.FrameMeta)
		es.Rows += nrows
		se := SegmentExplain{Segment: i, Gen: sv.Gen(), Version: sv.Version(), Rows: nrows}
		match, cause := true, pruneCause{pred: -1}
		if len(preds) > 0 {
			match, cause, err = segmentCanMatch(sv, preds, res)
			if err != nil {
				return finish(err)
			}
		}
		lap(&stages.PruneNS)
		if !match {
			es.SegmentsPruned++
			skipped := sv.BlockCount(store.FrameMeta, store.FramePerf)
			es.BlocksSkipped += skipped
			if collect {
				se.Verdict = cause.verdict
				if cause.pred >= 0 {
					se.Predicate = preds[cause.pred].String()
				}
				se.BlocksSkipped = skipped
				if err := addSegmentColumns(ex, colIdx, sv, false); err != nil {
					return finish(err)
				}
				ex.Segments = append(ex.Segments, se)
			}
			if withStats && mode != execPlanOnly {
				// A lone segment's stored stats carry over even when
				// nothing of it survives, as Load's do.
				if stats, err = sv.StatsCtx(ctx); err != nil {
					return finish(err)
				}
			}
			continue
		}
		scanned := sv.BlockCount(store.FrameMeta, store.FramePerf)
		es.BlocksScanned += scanned
		es.RowsScanned += nrows
		if collect {
			se.Verdict = VerdictScanned
			se.BlocksDecoded = scanned
			if err := addSegmentColumns(ex, colIdx, sv, true); err != nil {
				return finish(err)
			}
		}
		if mode == execPlanOnly {
			// Prune-only: report the would-scan estimate and move on.
			es.RowsMaterialized += nrows
			se.RowsMatched = -1 // unknown without executing
			ex.Segments = append(ex.Segments, se)
			continue
		}
		stageTo(ctx, StageFilter)
		th, pos, err := sv.LoadThicketCtx(ctx, withStats)
		if err != nil {
			return finish(err)
		}
		sel := evalSegment(th.Metadata, preds, res)
		lap(&stages.FilterNS)
		es.RowsMaterialized += len(sel)
		se.RowsMatched = len(sel)
		if collect {
			ex.Segments = append(ex.Segments, se)
		}
		if withStats {
			stats = th.Stats.Copy()
		}
		stageTo(ctx, StageMaterialize)
		if len(sel) == nrows {
			parts = append(parts, core.Part{Thicket: th}) // every row survives
		} else if len(sel) > 0 {
			parts = append(parts, core.Part{Thicket: th, Meta: sel, Perf: perfSelection(pos, sel, nrows)})
		}
		lap(&stages.MaterializeNS)
		stageTo(ctx, StagePrune)
	}
	if mode == execPlanOnly {
		ex.Stats, ex.Stages = es, stages
		return nil, es, ex, nil
	}
	stageTo(ctx, StageMaterialize)
	out, err := core.Gather(lay, parts, stats)
	if err != nil {
		return finish(err)
	}
	lap(&stages.MaterializeNS)
	if ex != nil {
		ex.Stats, ex.Stages = es, stages
	}
	return out, es, ex, nil
}

// perfSelection turns a segment's metadata selection into the perf rows
// it keeps, in one pass over the cached perf→metadata positions.
func perfSelection(pos []int32, sel dataframe.Sel, nmeta int) dataframe.Sel {
	keep := make([]bool, nmeta)
	for _, r := range sel {
		keep[r] = true
	}
	out := dataframe.Sel{}
	for r, m := range pos {
		if m >= 0 && keep[m] {
			out = append(out, uint32(r))
		}
	}
	return out
}

// describeUnfiltered fills the segment lines of a no-predicate analyze:
// nothing can prune, every segment is scanned in full.
func describeUnfiltered(st *store.Store, es *ExecStats, ex *Explain, colIdx explainCols) {
	sn := st.Snapshot()
	defer sn.Release()
	es.Segments = sn.NumSegments()
	for i := 0; i < sn.NumSegments(); i++ {
		sv := sn.Segment(i)
		nrows := sv.NRows(store.FrameMeta)
		scanned := sv.BlockCount(store.FrameMeta, store.FramePerf)
		es.BlocksScanned += scanned
		es.RowsScanned += nrows
		if err := addSegmentColumns(ex, colIdx, sv, true); err != nil {
			continue // header description is best-effort here; the load succeeded
		}
		ex.Segments = append(ex.Segments, SegmentExplain{
			Segment: i, Gen: sv.Gen(), Version: sv.Version(), Rows: nrows,
			Verdict: VerdictScanned, BlocksDecoded: scanned, RowsMatched: nrows,
		})
	}
}

// addSegmentColumns folds one segment's meta+perf blocks into the
// per-column aggregate, as decoded (scanned segment) or skipped
// (pruned).
func addSegmentColumns(ex *Explain, idx explainCols, sv store.SegmentView, decoded bool) error {
	for _, frame := range []string{store.FrameMeta, store.FramePerf} {
		cols, err := sv.Columns(frame)
		if err != nil {
			return err
		}
		for _, cs := range cols {
			ex.addColumn(idx, frame+":"+cs.Key.String(), decoded)
		}
	}
	return nil
}

// resolveUnion resolves each predicate column against the metadata
// schema the naive path's concatenation would have — union of full
// column keys in first-appearance order, union kind from the first
// appearance, index levels from the first segment — which the store's
// layout holds, built from headers alone. Unknown columns error with
// the endpoints' message.
func resolveUnion(meta *dataframe.Schema, preds []Predicate) ([]colResolution, error) {
	hasLevel := func(name string) string {
		for _, l := range meta.Levels() {
			if l == name {
				return name
			}
		}
		return ""
	}
	out := make([]colResolution, len(preds))
	for pi, p := range preds {
		r := colResolution{level: hasLevel(p.Column)}
		exact := -1
		var leaves []int
		for c := 0; c < meta.NCols(); c++ {
			key, _ := meta.Column(c)
			if len(key) == 1 && key[0] == p.Column {
				exact = c
			}
			if key.Leaf() == p.Column {
				leaves = append(leaves, c)
			}
		}
		col := exact
		if exact < 0 && len(leaves) == 1 {
			col = leaves[0]
		}
		switch {
		case col >= 0:
			r.mode = resolveKey
			r.key, r.kind = meta.Column(col)
		case len(leaves) == 0:
			r.mode = resolveAbsent
		default:
			r.mode = resolveAmbiguous
		}
		if r.mode != resolveKey && r.level == "" {
			return nil, unknownColumnError(p.Column)
		}
		out[pi] = r
	}
	return out, nil
}

// evalSegment evaluates the conjunction over one segment's loaded
// metadata frame using the union resolution — a segment that lacks the
// resolved key sees the constant null the outer concat would have
// filled in, and the index-level fallback applies per row.
func evalSegment(meta *dataframe.Frame, preds []Predicate, res []colResolution) dataframe.Sel {
	n := meta.NRows()
	var sel dataframe.Sel
	for pi := range preds {
		p, r := preds[pi], res[pi]
		var lvl *dataframe.Series
		if r.level != "" {
			lvl = meta.Index().LevelByName(r.level)
		}
		var col *dataframe.Series
		nullKind := dataframe.String // Row.Value renders resolution failures as String nulls
		if r.mode == resolveKey {
			col, _ = meta.Column(r.key)
			nullKind = r.kind
		}
		switch {
		case col == nil && lvl != nil:
			sel = filterPlain(sel, lvl, p)
		case col == nil:
			sel = dataframe.FilterConst(sel, n, p.Matches(dataframe.Null(nullKind)))
		case lvl == nil:
			sel = filterPlain(sel, col, p)
		default:
			sel = dataframe.FilterFunc(sel, n, func(row int) bool {
				v := col.At(row)
				if v.IsNull() {
					v = lvl.At(row)
				}
				return p.Matches(v)
			})
		}
		if len(sel) == 0 && sel != nil {
			break
		}
	}
	if sel == nil {
		sel = dataframe.FilterConst(nil, n, true)
	}
	return sel
}

// pruneCause names the header evidence that ruled a segment out: the
// verdict string and the index of the deciding predicate.
type pruneCause struct {
	verdict string
	pred    int
}

// segmentCanMatch decides from header statistics whether any row of the
// segment could satisfy every predicate, and — when not — which
// predicate and which class of evidence decided. It must never return
// false for a segment with a matching row; returning true merely costs
// a scan.
func segmentCanMatch(sv store.SegmentView, preds []Predicate, res []colResolution) (bool, pruneCause, error) {
	cols, err := sv.Columns(store.FrameMeta)
	if err != nil {
		return false, pruneCause{pred: -1}, err
	}
	nrows := sv.NRows(store.FrameMeta)
	byKey := map[string]store.ColumnStats{}
	byLevel := map[string]store.ColumnStats{}
	for _, cs := range cols {
		if cs.Level {
			byLevel[cs.Key.Leaf()] = cs
		} else {
			byKey[cs.Key.String()] = cs
		}
	}
	for pi := range preds {
		p, r := preds[pi], res[pi]
		lstats, hasLevel := byLevel[r.level]
		if r.level == "" {
			hasLevel = false
		}
		ok, verdict := true, ""
		switch {
		case r.mode != resolveKey:
			if hasLevel {
				ok, verdict = canMatchPlain(sv, lstats, nrows, p)
			} else if !p.Matches(dataframe.Null(dataframe.String)) {
				// Every row reads the constant null the union would fill in.
				ok, verdict = false, VerdictPrunedNullCount
			}
		default:
			cs, present := byKey[r.key.String()]
			switch {
			case !present && hasLevel:
				ok, verdict = canMatchPlain(sv, lstats, nrows, p)
			case !present:
				if !p.Matches(dataframe.Null(r.kind)) {
					ok, verdict = false, VerdictPrunedNullCount
				}
			case !hasLevel:
				ok, verdict = canMatchPlain(sv, cs, nrows, p)
			case cs.Nulls == 0:
				// No null cells, so the level fallback never fires.
				ok, verdict = canMatchPlain(sv, cs, nrows, p)
			default:
				// Rows see either a non-null column value or, on null
				// cells, the level value (null or not). The column's own
				// evidence names the verdict when both sides rule out.
				colOK, colVerdict := canMatchNonNull(sv, cs, nrows, p)
				if !colOK {
					var lvlOK bool
					lvlOK, _ = canMatchPlain(sv, lstats, nrows, p)
					if !lvlOK {
						ok, verdict = false, colVerdict
					}
				}
			}
		}
		if !ok {
			return false, pruneCause{verdict: verdict, pred: pi}, nil
		}
	}
	return true, pruneCause{pred: -1}, nil
}

// canMatchPlain reports whether any cell of the described column — null
// or not — could satisfy the predicate, with the verdict class when not.
func canMatchPlain(sv store.SegmentView, cs store.ColumnStats, nrows int, p Predicate) (bool, string) {
	if cs.Nulls != 0 && p.Matches(dataframe.Null(cs.Kind)) {
		return true, "" // nulls possible (or unknown) and a null matches
	}
	return canMatchNonNull(sv, cs, nrows, p)
}

// canMatchNonNull reports whether any NON-NULL cell of the described
// column could satisfy the predicate, using only header statistics and
// (for string equality) the block's dictionary page. Unknown statistics
// always answer true. A false answer names the evidence class: the
// null count (all cells null), the zone map (range or value-domain
// proof), or the dictionary page.
func canMatchNonNull(sv store.SegmentView, cs store.ColumnStats, nrows int, p Predicate) (bool, string) {
	if cs.Nulls >= 0 && cs.Nulls == nrows {
		return false, VerdictPrunedNullCount // every cell is null
	}
	switch cs.Kind {
	case dataframe.Int, dataframe.Float:
		if !p.rhsOK {
			return true, "" // rendered-string comparison: no zone map applies
		}
		if math.IsNaN(p.rhs) {
			// Every non-null numeric three-way-compares 0 against NaN.
			if p.cmp.Match(0) {
				return true, ""
			}
			return false, VerdictPrunedZoneMap
		}
		if cs.Min == nil || cs.Max == nil {
			return true, "" // no zone map (pre-v2, all-null, or NaN-poisoned)
		}
		lo, hi := *cs.Min, *cs.Max
		ok := true
		switch p.cmp {
		case dataframe.CmpEq:
			ok = lo <= p.rhs && p.rhs <= hi
		case dataframe.CmpNe:
			ok = !(lo == hi && lo == p.rhs)
		case dataframe.CmpLt:
			ok = lo < p.rhs
		case dataframe.CmpLe:
			ok = lo <= p.rhs
		case dataframe.CmpGt:
			ok = hi > p.rhs
		case dataframe.CmpGe:
			ok = hi >= p.rhs
		}
		if !ok {
			return false, VerdictPrunedZoneMap
		}
		return true, ""
	case dataframe.Bool:
		if p.Matches(dataframe.BoolVal(true)) || p.Matches(dataframe.BoolVal(false)) {
			return true, ""
		}
		return false, VerdictPrunedZoneMap
	case dataframe.String:
		if p.cmp == dataframe.CmpEq && !p.rhsOK {
			// Equality against a non-numeric literal matches a word iff
			// the strings are identical, so the dictionary page decides.
			// A probe error never prunes: the scan will surface it.
			if has, err := sv.DictHasWord(store.FrameMeta, cs, p.Value); err == nil && !has {
				return false, VerdictPrunedDict
			}
		}
		return true, ""
	}
	return true, ""
}
