package store

import (
	"container/list"
	"slices"
	"sync"

	"repro/internal/calltree"
	"repro/internal/core"
	"repro/internal/dataframe"
	"repro/internal/telemetry"
)

// DefaultCacheBytes bounds the decoded-column cache of a Store opened
// with default options: enough for a few projections of a large
// ensemble without letting a scan of every column pin the whole file
// in memory.
const DefaultCacheBytes = 64 << 20

// columnCache is a byte-bounded LRU of decoded column series, keyed by
// (segment generation, frame, block), plus what is derived from them:
// per segment generation, the segment's assemblies (validated thicket
// and perf→metadata row positions); per layout generation, the one
// layout of the live segment set (union call tree and outer schemas,
// from headers). The generation stamp — not the segment's position —
// identifies the segment, so compaction retiring some segments
// invalidates exactly their entries and any layout holding them
// (dropSegment) while every surviving segment keeps its warm columns.
//
// Sharing contract: a cached series, tree or schema is shared only with
// store-internal assemblies and with the frames a read builds before it
// returns. Everything the store hands out is a gather or a copy, so no
// caller's mutation can reach the cache. An assembly references its
// segment's cached series instead of copying them, so each decoded
// column is resident — and counted — once; evicting any of a segment's
// columns evicts that segment's assemblies with it. Assemblies and
// layouts are charged only their own overhead.
type columnCache struct {
	mu    sync.Mutex
	max   int64
	used  int64
	order *list.List // front = most recent; values are *cacheEntry
	items map[cacheKey]*list.Element

	// Hit/miss counters live in the telemetry registry (the single
	// counting site, labeled by store path); Info() reads them back.
	hits   *telemetry.Counter
	misses *telemetry.Counter
}

// cacheKey names a decoded block, or — with frame set to one of the
// pseudo-frames — a segment assembly or the layout.
type cacheKey struct {
	gen   int64 // per-segment generation stamp (0 for the layout)
	frame string
	block int // index levels first, then data columns; assemblies: 1 = with stats
}

// Pseudo-frames: never the name of a stored frame.
const (
	asmFull   = "\x00full"   // an assembly: every meta and perf block
	layoutKey = "\x00layout" // the layout of the live segment set
)

func asmKey(gen int64, withStats bool) cacheKey {
	k := cacheKey{gen: gen, frame: asmFull}
	if withStats {
		k.block = 1
	}
	return k
}

// assembly is one segment's validated thicket, built over the cache's
// shared series, with each perf row's metadata row position. blocks
// lists every block it covers, in header order: serving it reports
// those blocks as visited.
type assembly struct {
	th     *core.Thicket
	pos    []int32
	blocks []assembledBlock
}

// layout is the union call tree and outer perf/metadata schemas of the
// segments stamped gens, in layout order.
type layout struct {
	gens       []int64
	tree       *calltree.Tree
	perf, meta *dataframe.Schema
}

type assembledBlock struct {
	key    cacheKey
	column string
	s      *dataframe.Series // the series th holds for the block
}

type cacheEntry struct {
	key    cacheKey
	s      *dataframe.Series // block entries
	asm    *assembly         // assembly entries
	layout *layout           // the layout entry
	bytes  int64
}

func newColumnCache(maxBytes int64, path string) *columnCache {
	return &columnCache{
		max:   maxBytes,
		order: list.New(),
		items: make(map[cacheKey]*list.Element),
		hits: telemetry.Default.Counter("thicket_store_cache_hits_total",
			"Decoded-column cache hits.", "store", path),
		misses: telemetry.Default.Counter("thicket_store_cache_misses_total",
			"Decoded-column cache misses.", "store", path),
	}
}

// seriesBytes estimates the resident size of a decoded series.
func seriesBytes(s *dataframe.Series) int64 {
	n := int64(s.Len())
	var per int64
	switch s.Kind() {
	case dataframe.Float, dataframe.Int:
		per = 9 // 8-byte payload + null byte
	case dataframe.Bool:
		per = 2
	case dataframe.String:
		per = 5 // 4-byte dict code + null byte; dictionary added below
	}
	total := n * per
	if s.Kind() == dataframe.String {
		dict, _ := s.StringData()
		for _, w := range dict.Words() {
			total += int64(len(w)) + 16 // content + header
		}
	}
	return total
}

// assemblyBytes estimates what an assembly holds beyond the shared
// series it references: the call tree, the validated metadata index's
// key lookup and the perf rows' metadata positions.
func assemblyBytes(a *assembly) int64 {
	return int64(a.th.Tree.Len())*96 + int64(a.th.Metadata.NRows())*48 + int64(len(a.pos))*4
}

// layoutBytes estimates a layout's resident size: its tree and its
// schemas' column keys.
func layoutBytes(l *layout) int64 {
	return int64(l.tree.Len())*96 + int64(l.perf.NCols()+l.meta.NCols())*64 + int64(len(l.gens))*8
}

// get returns the cached series itself — shared, so the caller must not
// mutate it — or nil on miss.
func (c *columnCache) get(k cacheKey) *dataframe.Series {
	if c.max <= 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		c.misses.Inc()
		return nil
	}
	c.hits.Inc()
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).s
}

// put caches a compact copy of a freshly decoded s under k, evicting
// least-recently-used entries until the byte budget holds, and returns
// the block's resident series — shared, like get's — or s itself when
// the block stays uncached (a series larger than the whole budget, or
// caching disabled).
func (c *columnCache) put(k cacheKey, s *dataframe.Series) *dataframe.Series {
	if c.max <= 0 {
		return s
	}
	ent := &cacheEntry{key: k, s: s.Copy(), bytes: seriesBytes(s)}
	if resident := c.insert(ent); resident != nil {
		return resident.s
	}
	return s
}

// entry returns the cached assembly or layout entry under k, or nil.
// An assembly's hits are counted by the caller per served block.
func (c *columnCache) entry(k cacheKey) *cacheEntry {
	if c.max <= 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return nil
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry)
}

// putAssembly caches a under k provided every series it was built on is
// still the resident entry for its block — otherwise the assembly would
// keep an uncounted column alive, and it is left uncached.
func (c *columnCache) putAssembly(k cacheKey, a *assembly) {
	c.insert(&cacheEntry{key: k, asm: a, bytes: assemblyBytes(a)})
}

// putLayout caches l in place of any other layout: only the layout of
// one segment set — normally the live one — is kept.
func (c *columnCache) putLayout(l *layout) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	if el, ok := c.items[cacheKey{frame: layoutKey}]; ok {
		c.removeLocked(el)
	}
	c.mu.Unlock()
	c.insert(&cacheEntry{key: cacheKey{frame: layoutKey}, layout: l, bytes: layoutBytes(l)})
}

// insert caches ent unless its key is already resident, and returns the
// resident entry for the key — nil when ent is too large for the budget
// or, for an assembly, a block it was built on is no longer resident.
func (c *columnCache) insert(ent *cacheEntry) *cacheEntry {
	if c.max <= 0 || ent.bytes > c.max {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[ent.key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*cacheEntry)
	}
	if !c.residentLocked(ent.asm) {
		return nil
	}
	for c.used+ent.bytes > c.max {
		back := c.order.Back()
		if back == nil {
			break
		}
		c.removeLocked(back)
	}
	if !c.residentLocked(ent.asm) {
		return nil // evicting for room took one of its blocks
	}
	c.items[ent.key] = c.order.PushFront(ent)
	c.used += ent.bytes
	return ent
}

// residentLocked reports whether every block an assembly (nil for a
// block entry) was built on is still the block's cached series,
// refreshing each one's recency.
func (c *columnCache) residentLocked(a *assembly) bool {
	if a == nil {
		return true
	}
	for _, b := range a.blocks {
		el, ok := c.items[b.key]
		if !ok || el.Value.(*cacheEntry).s != b.s {
			return false
		}
		c.order.MoveToFront(el)
	}
	return true
}

// removeLocked evicts one entry; a block's eviction takes its segment's
// assemblies along, since they reference the block's series.
func (c *columnCache) removeLocked(el *list.Element) {
	ent := el.Value.(*cacheEntry)
	c.order.Remove(el)
	delete(c.items, ent.key)
	c.used -= ent.bytes
	if ent.s == nil {
		return
	}
	for _, withStats := range []bool{false, true} {
		if a, ok := c.items[asmKey(ent.key.gen, withStats)]; ok {
			c.removeLocked(a)
		}
	}
}

// dropSegment evicts every entry belonging to the segment stamped gen —
// the compaction path: retired segments' columns, assemblies and the
// layout holding them leave the cache, the survivors' stay warm.
func (c *columnCache) dropSegment(gen int64) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var keys []cacheKey
	for k, el := range c.items {
		if l := el.Value.(*cacheEntry).layout; k.gen == gen || l != nil && slices.Contains(l.gens, gen) {
			keys = append(keys, k)
		}
	}
	for _, k := range keys {
		if el, ok := c.items[k]; ok { // an earlier removal may have taken it
			c.removeLocked(el)
		}
	}
}

// stats reports (hits, misses, resident bytes, entries).
func (c *columnCache) stats() (hits, misses, bytes int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits.Value(), c.misses.Value(), c.used, len(c.items)
}
