package store

import "sort"

// Assemblies reports the cached segment assemblies: the generations
// holding one (ascending, once per generation) and their summed
// resident-byte estimate.
func (s *Store) Assemblies() (gens []int64, bytes int64) {
	c := s.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := map[int64]bool{}
	for k, el := range c.items {
		ent := el.Value.(*cacheEntry)
		if ent.asm == nil {
			continue
		}
		bytes += ent.bytes
		if !seen[k.gen] {
			seen[k.gen] = true
			gens = append(gens, k.gen)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, bytes
}

// CachedLayout reports the segment generations the cached layout
// covers, or nil when no layout is cached.
func (s *Store) CachedLayout() []int64 {
	c := s.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[cacheKey{frame: layoutKey}]; ok {
		return el.Value.(*cacheEntry).layout.gens
	}
	return nil
}
