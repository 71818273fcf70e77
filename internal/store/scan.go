package store

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/calltree"
	"repro/internal/core"
	"repro/internal/dataframe"
)

// scan.go is the zone-map read API: a pinned, header-level view of the
// live segment set that lets a query planner decide — per segment, per
// predicate — whether any row can match before a single block is
// decoded. It exposes exactly what the planner needs and nothing more:
// per-column min/max/null statistics from the header, dictionary-page
// membership probes that parse only a block's word table, and
// constructors for both the full segment thicket (survivors) and the
// schema-only empty thicket (pruned segments still contribute their
// column schema and tree paths to a multi-segment union).

// Exported frame names for Snapshot consumers.
const (
	FramePerf  = framePerf
	FrameMeta  = frameMeta_
	FrameStats = frameStats
)

// ColumnStats is one block's header-level description: key, kind, zone
// map, and null count. Level marks index-level blocks.
type ColumnStats struct {
	Key   dataframe.ColKey
	Kind  dataframe.Kind
	Level bool
	// Min/Max are the zone map over non-null values; nil means "no
	// statistics" (string/bool columns, all-null columns, NaN-poisoned
	// columns, pre-v2 segments) and forbids skipping on range grounds.
	Min *float64
	Max *float64
	// Nulls counts null rows; -1 means "unknown" (pre-v3 segments).
	Nulls int

	blockIdx int
	cm       columnMeta
}

// Snapshot is a pinned view of the store's live segments. Callers must
// Release it; segments stay readable (even across compaction) until
// then.
type Snapshot struct {
	st      *Store
	segs    []*segment
	release func()
}

// Snapshot pins the live segment set for header-level planning and
// block reads.
func (s *Store) Snapshot() *Snapshot {
	segs, release := s.pin()
	return &Snapshot{st: s, segs: segs, release: release}
}

// Release unpins the snapshot's segments.
func (sn *Snapshot) Release() { sn.release() }

// NumSegments reports the snapshot's segment count.
func (sn *Snapshot) NumSegments() int { return len(sn.segs) }

// ProfileLevel reports the shared profile index level name.
func (sn *Snapshot) ProfileLevel() string { return sn.st.ProfileLevel() }

// Segment returns the i-th segment view in layout order.
func (sn *Snapshot) Segment(i int) SegmentView {
	return SegmentView{st: sn.st, seg: sn.segs[i]}
}

// SegmentView is a header-level handle on one pinned segment.
type SegmentView struct {
	st  *Store
	seg *segment
}

// Gen reports the segment's generation stamp.
func (v SegmentView) Gen() int64 { return v.seg.gen }

// Version reports the segment's format version.
func (v SegmentView) Version() int { return v.seg.header.Version }

// NRows reports the named frame's row count from the header (0 when the
// frame is absent).
func (v SegmentView) NRows(frame string) int {
	if fm := v.seg.header.frame(frame); fm != nil {
		return fm.NRows
	}
	return 0
}

// TreePaths returns the segment's call-tree paths in serialization
// order.
func (v SegmentView) TreePaths() [][]string { return v.seg.header.TreePaths }

// Tree rebuilds the segment's call tree from header paths alone.
func (v SegmentView) Tree() (*calltree.Tree, error) {
	tree := calltree.New()
	for i, p := range v.seg.header.TreePaths {
		if _, err := tree.AddPath(p); err != nil {
			return nil, fmt.Errorf("store: %s: segment g%d tree path %d: %w", v.st.path, v.seg.gen, i, err)
		}
	}
	return tree, nil
}

// Columns describes the named frame's blocks — index levels first, then
// data columns, mirroring block order — from the header alone.
func (v SegmentView) Columns(frame string) ([]ColumnStats, error) {
	fm := v.seg.header.frame(frame)
	if fm == nil {
		return nil, fmt.Errorf("store: %s: segment g%d has no frame %q", v.st.path, v.seg.gen, frame)
	}
	out := make([]ColumnStats, 0, len(fm.Levels)+len(fm.Cols))
	add := func(cm columnMeta, level bool, blockIdx int) error {
		kind, err := parseKindName(cm.Kind)
		if err != nil {
			return fmt.Errorf("store: %s: segment g%d frame %s block %v: %w", v.st.path, v.seg.gen, frame, cm.Key, err)
		}
		cs := ColumnStats{
			Key:      dataframe.ColKey(cm.Key).Copy(),
			Kind:     kind,
			Level:    level,
			Min:      cm.Min,
			Max:      cm.Max,
			Nulls:    -1,
			blockIdx: blockIdx,
			cm:       cm,
		}
		if v.seg.header.Version >= 3 && cm.Nulls != nil {
			cs.Nulls = *cm.Nulls
		}
		out = append(out, cs)
		return nil
	}
	for l, cm := range fm.Levels {
		if err := add(cm, true, l); err != nil {
			return nil, err
		}
	}
	for c, cm := range fm.Cols {
		if err := add(cm, false, len(fm.Levels)+c); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// DictHasWord probes a string block's dictionary page for word without
// decoding any rows: it reads the raw block, verifies the CRC, and
// parses only the word table. Returns true — "cannot rule the word out"
// — for v1 plain-string blocks, which have no page to probe.
func (v SegmentView) DictHasWord(frame string, cs ColumnStats, word string) (bool, error) {
	buf := make([]byte, cs.cm.Length)
	if _, err := v.seg.f.ReadAt(buf, v.seg.dataOff+int64(cs.cm.Offset)); err != nil {
		return false, fmt.Errorf("store: %s: segment g%d frame %s block %v: %w", v.st.path, v.seg.gen, frame, cs.cm.Key, err)
	}
	if len(buf) < 4+2 {
		return false, fmt.Errorf("store: %s: segment g%d frame %s block %v: too short", v.st.path, v.seg.gen, frame, cs.cm.Key)
	}
	body, crcBytes := buf[:len(buf)-4], buf[len(buf)-4:]
	if got, want := crc32.Checksum(body, crcTable), binary.LittleEndian.Uint32(crcBytes); got != want {
		return false, fmt.Errorf("store: %s: segment g%d frame %s block %v: CRC mismatch", v.st.path, v.seg.gen, frame, cs.cm.Key)
	}
	if body[0] != kindStringDict && body[0] != kindDictRLE {
		return true, nil
	}
	rest := body[1:]
	n, sz := binary.Uvarint(rest) // row count
	if sz <= 0 {
		return false, fmt.Errorf("store: %s: segment g%d frame %s block %v: bad row count", v.st.path, v.seg.gen, frame, cs.cm.Key)
	}
	rest = rest[sz:]
	nullLen := (int(n) + 7) / 8
	if len(rest) < nullLen {
		return false, fmt.Errorf("store: %s: segment g%d frame %s block %v: truncated null bitmap", v.st.path, v.seg.gen, frame, cs.cm.Key)
	}
	rest = rest[nullLen:]
	nw, sz := binary.Uvarint(rest)
	if sz <= 0 || nw > uint64(len(rest)) {
		return false, fmt.Errorf("store: %s: segment g%d frame %s block %v: bad dictionary word count", v.st.path, v.seg.gen, frame, cs.cm.Key)
	}
	rest = rest[sz:]
	for w := uint64(0); w < nw; w++ {
		ln, sz := binary.Uvarint(rest)
		if sz <= 0 || ln > uint64(len(rest)) {
			return false, fmt.Errorf("store: %s: segment g%d frame %s block %v: bad dictionary word %d", v.st.path, v.seg.gen, frame, cs.cm.Key, w)
		}
		rest = rest[sz:]
		if uint64(len(word)) == ln && string(rest[:ln]) == word {
			return true, nil
		}
		rest = rest[ln:]
	}
	return false, nil
}

// LoadThicketCtx returns the segment's full thicket — the survivor
// path. It is the store's own assembly: built once per segment
// generation over the column cache's shared series, validated once, and
// read-only — callers gather or copy before anything leaves their
// hands. withStats controls whether the stored stats frame decodes;
// pass true only for a single-segment store, matching Store.Load. ctx
// is checked at every block boundary and its ScanObserver hears about
// every block the thicket covers, whether the assembly is built or
// served warm.
func (v SegmentView) LoadThicketCtx(ctx context.Context, withStats bool) (*core.Thicket, error) {
	return v.assembled(ctx, true, withStats)
}

// EmptyThicketCtx returns the segment's zero-row thicket — the pruned
// path: full tree, meta/perf frames with the right schema and no rows,
// built from the header without reading a meta or perf block. With
// withStats the stored stats frame still decodes (a pruned
// single-segment store must reproduce the stats table the naive path
// carries over). Like LoadThicketCtx it returns the store's read-only
// assembly.
func (v SegmentView) EmptyThicketCtx(ctx context.Context, withStats bool) (*core.Thicket, error) {
	return v.assembled(ctx, false, withStats)
}

// assembled serves the segment's full or empty thicket from its cached
// assembly, or builds, validates and caches it. A build that fails or
// whose context ends is never cached.
func (v SegmentView) assembled(ctx context.Context, full, withStats bool) (*core.Thicket, error) {
	s, seg := v.st, v.seg
	key := asmKey(seg.gen, full, withStats)
	if a := s.cache.assembly(key); a != nil {
		if err := s.serveAssembly(ctx, a); err != nil {
			return nil, err
		}
		return a.th, nil
	}
	var th *core.Thicket
	var err error
	if full {
		th, err = s.loadSegment(ctx, nil, seg, nil, withStats)
	} else {
		th, err = v.emptyThicket(ctx, withStats)
	}
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	a := &assembly{th: th}
	cover := func(name string, fr *dataframe.Frame) {
		fm := seg.header.frame(name)
		for l, cm := range fm.Levels {
			a.blocks = append(a.blocks, assembledBlock{key: cacheKey{gen: seg.gen, frame: name, block: l},
				column: dataframe.ColKey(cm.Key).Leaf(), s: fr.Index().Level(l)})
		}
		for c, cm := range fm.Cols {
			a.blocks = append(a.blocks, assembledBlock{key: cacheKey{gen: seg.gen, frame: name, block: len(fm.Levels) + c},
				column: dataframe.ColKey(cm.Key).Leaf(), s: fr.ColumnAt(c)})
		}
	}
	if full {
		cover(framePerf, th.PerfData)
		cover(frameMeta_, th.Metadata)
	}
	if withStats {
		cover(frameStats, th.Stats)
	}
	s.cache.putAssembly(key, a)
	return th, nil
}

// serveAssembly accounts one warm use of an assembly the way building it
// would have: every covered block is checked against ctx, reported to
// the context's ScanObserver, and counted as a column-cache hit.
func (s *Store) serveAssembly(ctx context.Context, a *assembly) error {
	obs := scanObserverFrom(ctx)
	for _, b := range a.blocks {
		if err := ctx.Err(); err != nil {
			return err
		}
		if obs != nil {
			obs.BlockRead(b.key.frame, b.column)
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	s.cache.hits.Add(int64(len(a.blocks)))
	return nil
}

// emptyThicket builds the segment's zero-row thicket from the header.
func (v SegmentView) emptyThicket(ctx context.Context, withStats bool) (*core.Thicket, error) {
	tree, err := v.Tree()
	if err != nil {
		return nil, err
	}
	perf, err := v.EmptyFrame(framePerf)
	if err != nil {
		return nil, err
	}
	meta, err := v.EmptyFrame(frameMeta_)
	if err != nil {
		return nil, err
	}
	var stats *dataframe.Frame
	if withStats {
		stats, err = v.st.loadFrame(ctx, nil, v.seg, frameStats, nil)
		if err != nil {
			return nil, err
		}
	}
	return core.FromParts(tree, perf, meta, stats, v.seg.header.ProfileLevel)
}

// EmptyFrame builds a zero-row frame with the named frame's exact
// schema — index level names/kinds and column keys/kinds — from the
// header, without reading any block. It equals SelectRows(loaded, nil)
// on every axis a Frame comparison sees.
func (v SegmentView) EmptyFrame(frame string) (*dataframe.Frame, error) {
	cols, err := v.Columns(frame)
	if err != nil {
		return nil, err
	}
	var levels []*dataframe.Series
	var keys []dataframe.ColKey
	var data []*dataframe.Series
	for _, cs := range cols {
		s := dataframe.NewSeries(cs.Key.Leaf(), cs.Kind)
		if cs.Level {
			levels = append(levels, s)
			continue
		}
		keys = append(keys, cs.Key)
		data = append(data, s)
	}
	ix, err := dataframe.NewIndex(levels...)
	if err != nil {
		return nil, fmt.Errorf("store: %s: segment g%d frame %s: %w", v.st.path, v.seg.gen, frame, err)
	}
	return dataframe.NewFrameWithColIndex(ix, keys, data)
}

// BlockCount sums the named frames' block counts (levels + columns)
// from the header — the unit the planner's scanned/skipped accounting
// uses.
func (v SegmentView) BlockCount(frames ...string) int {
	n := 0
	for _, name := range frames {
		if fm := v.seg.header.frame(name); fm != nil {
			n += len(fm.Levels) + len(fm.Cols)
		}
	}
	return n
}
