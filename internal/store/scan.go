package store

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

	"repro/internal/calltree"
	"repro/internal/core"
	"repro/internal/dataframe"
)

// scan.go is the zone-map read API: a pinned, header-level view of the
// live segment set that lets a query planner decide — per segment, per
// predicate — whether any row can match before a single block is
// decoded. It exposes exactly what the planner needs and nothing more:
// per-column min/max/null statistics from the header, dictionary-page
// membership probes that parse only a block's word table, the snapshot's
// layout (union call tree and outer schemas, which pruned segments shape
// without a block read), and the surviving segments' assemblies.

// Exported frame names for Snapshot consumers.
const (
	FramePerf = framePerf
	FrameMeta = frameMeta_
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
// path — and, for every perf row, the position of its metadata row
// (core.Thicket.MetaPositions). Both are the store's own assembly: built
// once per segment generation over the column cache's shared series,
// validated once, and read-only — callers gather or copy before anything
// leaves their hands. withStats controls whether the stored stats frame
// decodes; pass true only for a single-segment store, matching
// Store.Load. ctx is checked at every block boundary and its
// ScanObserver hears about every block the thicket covers, whether the
// assembly is built or served warm. A build that fails or whose context
// ends is never cached.
func (v SegmentView) LoadThicketCtx(ctx context.Context, withStats bool) (*core.Thicket, []int32, error) {
	s, seg := v.st, v.seg
	key := asmKey(seg.gen, withStats)
	if e := s.cache.entry(key); e != nil {
		// Account for the warm use the way building it would have: every
		// covered block is checked against ctx, reported to the context's
		// ScanObserver, and counted as a column-cache hit.
		obs := scanObserverFrom(ctx)
		for _, b := range e.asm.blocks {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			if obs != nil {
				obs.BlockRead(b.key.frame, b.column)
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		s.cache.hits.Add(int64(len(e.asm.blocks)))
		return e.asm.th, e.asm.pos, nil
	}
	th, err := s.loadSegment(ctx, nil, seg, nil, withStats)
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	a := &assembly{th: th, pos: th.MetaPositions()}
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
	cover(framePerf, th.PerfData)
	cover(frameMeta_, th.Metadata)
	if withStats {
		cover(frameStats, th.Stats)
	}
	s.cache.putAssembly(key, a)
	return th, a.pos, nil
}

// StatsCtx returns a copy of the segment's stored stats frame — what a
// pruned single-segment store still carries over, as Store.Load does.
func (v SegmentView) StatsCtx(ctx context.Context) (*dataframe.Frame, error) {
	f, err := v.st.loadFrame(ctx, nil, v.seg, frameStats, nil)
	if err != nil {
		return nil, err
	}
	return f.Copy(), nil
}

// Layout returns what the snapshot's segments concatenate into before
// any row is chosen: the union call tree (a fresh copy the caller owns)
// and the outer perf and metadata schemas, pruned segments included.
// It comes from segment headers alone, once per layout generation, and
// is cached in the column cache like an assembly: a compaction retiring
// any of its segments evicts it, and a build whose context has ended is
// not cached.
func (sn *Snapshot) Layout(ctx context.Context) (core.Layout, error) {
	gens := make([]int64, len(sn.segs))
	for i, seg := range sn.segs {
		gens[i] = seg.gen
	}
	var l *layout
	if e := sn.st.cache.entry(cacheKey{frame: layoutKey}); e != nil && slices.Equal(e.layout.gens, gens) {
		l = e.layout
	} else {
		var err error
		if l, err = sn.buildLayout(gens); err != nil {
			return core.Layout{}, err
		}
		if ctx.Err() == nil {
			sn.st.cache.putLayout(l)
		}
	}
	return core.Layout{Tree: l.tree.Copy(), ProfileLevel: sn.st.ProfileLevel(), Perf: l.perf, Meta: l.meta}, nil
}

// buildLayout folds every segment's header tree paths and perf/metadata
// column descriptions, in layout order.
func (sn *Snapshot) buildLayout(gens []int64) (*layout, error) {
	l := &layout{gens: gens, tree: calltree.New(), perf: &dataframe.Schema{}, meta: &dataframe.Schema{}}
	for i := range sn.segs {
		v := sn.Segment(i)
		for j, p := range v.seg.header.TreePaths {
			if _, err := l.tree.AddPath(p); err != nil {
				return nil, fmt.Errorf("store: %s: segment g%d tree path %d: %w", sn.st.path, v.seg.gen, j, err)
			}
		}
		for _, fr := range []struct {
			name   string
			schema *dataframe.Schema
		}{{framePerf, l.perf}, {frameMeta_, l.meta}} {
			cols, err := v.Columns(fr.name)
			if err != nil {
				return nil, err
			}
			var levels []string
			var keys []dataframe.ColKey
			var levelKinds, kinds []dataframe.Kind
			for _, cs := range cols {
				if cs.Level {
					levels, levelKinds = append(levels, cs.Key.Leaf()), append(levelKinds, cs.Kind)
				} else {
					keys, kinds = append(keys, cs.Key), append(kinds, cs.Kind)
				}
			}
			if err := fr.schema.Merge(levels, levelKinds, keys, kinds); err != nil {
				return nil, fmt.Errorf("store: %s: %s: %w", sn.st.path, fr.name, err)
			}
		}
	}
	return l, nil
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
