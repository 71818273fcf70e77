package store_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dataframe"
	"repro/internal/ingest"
	"repro/internal/plan"
	"repro/internal/profile"
	"repro/internal/store"
)

// This file covers the per-generation segment assemblies behind the
// compiled scan path: they are never cached from a failed or canceled
// build, serve warm scans with the same block accounting a build has,
// share the column cache's series instead of duplicating them, and
// leave the cache with the generation compaction retires.

// idEnsemble is randomEnsemble with profile ids starting at base, so
// batches can be appended to one store.
func idEnsemble(t *testing.T, seed, base int64, n int) []*profile.Profile {
	t.Helper()
	profiles := randomEnsemble(t, seed, n)
	for i, p := range profiles {
		p.SetMeta("id", dataframe.Int64(base+int64(i)))
	}
	return profiles
}

func idThicket(t *testing.T, profiles []*profile.Profile) *core.Thicket {
	t.Helper()
	th, err := core.FromProfiles(profiles, core.Options{IndexBy: "id"})
	if err != nil {
		t.Fatal(err)
	}
	return th
}

// segmentedStore writes one single-file store segment per batch.
func segmentedStore(t *testing.T, batches ...[]*profile.Profile) *store.Store {
	t.Helper()
	path := filepath.Join(t.TempDir(), "asm.tks")
	if err := store.Create(path, idThicket(t, batches[0])); err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	for _, b := range batches[1:] {
		if err := s.Append(idThicket(t, b)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// cancelObserver counts block reads and cancels its query at the
// cancelAt-th read (never when cancelAt is 0).
type cancelObserver struct {
	reads    atomic.Int64
	cancelAt int64
	cancel   context.CancelFunc
}

func (o *cancelObserver) BlockRead(frame, column string) {
	if o.reads.Add(1) == o.cancelAt {
		o.cancel()
	}
}

func compile(t *testing.T, where ...string) []plan.Predicate {
	t.Helper()
	preds, err := plan.Compile(where)
	if err != nil {
		t.Fatal(err)
	}
	return preds
}

// naive is the reference answer: the full store loaded, then filtered
// row at a time.
func naive(t *testing.T, s *store.Store, preds []plan.Predicate) *core.Thicket {
	t.Helper()
	loaded, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	return plan.NaiveFilter(loaded, preds)
}

func TestCanceledAssemblyNotCached(t *testing.T) {
	s := segmentedStore(t, idEnsemble(t, 1, 0, 6), idEnsemble(t, 2, 100, 6))
	preds := compile(t, "group!=none") // nothing prunes: every segment assembles

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obs := &cancelObserver{cancelAt: 1, cancel: cancel}
	if _, _, err := plan.ExecuteStoreCtx(store.WithScanObserver(ctx, obs), s, preds); !errors.Is(err, context.Canceled) {
		t.Fatalf("scan canceled after the first block returned %v, want context.Canceled", err)
	}
	if gens, _ := s.Assemblies(); len(gens) != 0 {
		t.Fatalf("canceled scan left assemblies cached for generations %v", gens)
	}

	got, _, err := plan.ExecuteStore(s, preds)
	if err != nil {
		t.Fatal(err)
	}
	assertThicketsEqual(t, "scan after canceled build", naive(t, s, preds), got)
	if gens, _ := s.Assemblies(); !slices.Equal(gens, s.Generations()) {
		t.Fatalf("assemblies after a full scan = %v, want every generation %v", gens, s.Generations())
	}

	// Canceling while warm assemblies serve leaves them intact.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	obs2 := &cancelObserver{cancelAt: 1, cancel: cancel2}
	if _, _, err := plan.ExecuteStoreCtx(store.WithScanObserver(ctx2, obs2), s, preds); !errors.Is(err, context.Canceled) {
		t.Fatalf("warm scan canceled after the first block returned %v, want context.Canceled", err)
	}
	if obs2.reads.Load() != 1 {
		t.Fatalf("warm scan kept serving after its cancel: %d blocks reported", obs2.reads.Load())
	}
	got, _, err = plan.ExecuteStore(s, preds)
	if err != nil {
		t.Fatal(err)
	}
	assertThicketsEqual(t, "scan after canceled serve", naive(t, s, preds), got)
}

func TestWarmAssemblyAccountsEveryBlock(t *testing.T) {
	s := segmentedStore(t, idEnsemble(t, 3, 0, 5), idEnsemble(t, 4, 100, 5), idEnsemble(t, 5, 200, 5))
	preds := compile(t, "group!=none")
	scan := func() (reads int64, stats plan.ExecStats) {
		obs := &cancelObserver{}
		_, es, err := plan.ExecuteStoreCtx(store.WithScanObserver(context.Background(), obs), s, preds)
		if err != nil {
			t.Fatal(err)
		}
		return obs.reads.Load(), es
	}
	coldReads, cold := scan()
	before := s.Info()
	warmReads, warm := scan()
	after := s.Info()
	if cold != warm {
		t.Fatalf("warm scan stats %+v differ from cold %+v", warm, cold)
	}
	if warmReads != coldReads || warmReads != int64(warm.BlocksScanned) {
		t.Fatalf("observer heard %d blocks warm, %d cold; the scan covers %d", warmReads, coldReads, warm.BlocksScanned)
	}
	if hits := after.CacheHits - before.CacheHits; hits != int64(warm.BlocksScanned) {
		t.Fatalf("warm scan counted %d cache hits, want one per scanned block (%d)", hits, warm.BlocksScanned)
	}
	if misses := after.CacheMisses - before.CacheMisses; misses != 0 {
		t.Fatalf("warm scan counted %d cache misses", misses)
	}
}

// TestQueryResultsAreIsolated mutates query results every way a caller
// can — aggregating stats, adding a perf column, editing metadata — and
// re-queries: the store's shared assemblies must not see any of it.
func TestQueryResultsAreIsolated(t *testing.T) {
	stores := map[string]*store.Store{
		"one segment":    segmentedStore(t, idEnsemble(t, 6, 0, 8)),
		"three segments": segmentedStore(t, idEnsemble(t, 7, 0, 6), idEnsemble(t, 8, 100, 6), idEnsemble(t, 9, 200, 6)),
	}
	for name, s := range stores {
		for _, where := range [][]string{{"group!=none"}, {"scale>=4"}} {
			preds := compile(t, where...)
			want := naive(t, s, preds)
			label := name + " " + where[0]
			for round := 0; round < 2; round++ {
				got, _, err := plan.ExecuteStore(s, preds)
				if err != nil {
					t.Fatal(err)
				}
				assertThicketsEqual(t, label, want, got)
				if got.NumProfiles() == 0 {
					t.Fatalf("%s: predicate selects nothing; the mutations below would be vacuous", label)
				}
				if err := got.AggregateStats([]dataframe.ColKey{{"time"}}, []string{"mean"}); err != nil {
					t.Fatal(err)
				}
				n := got.PerfData.NRows()
				if err := got.PerfData.AddColumnWithKey(dataframe.ColKey{"extra"}, dataframe.NewFloatSeries("extra", make([]float64, n))); err != nil {
					t.Fatal(err)
				}
				group, err := got.Metadata.ColumnByName("group")
				if err != nil {
					t.Fatal(err)
				}
				if err := group.Set(0, dataframe.Str("edited")); err != nil {
					t.Fatal(err)
				}
				if err := got.Metadata.Index().Level(0).Set(0, dataframe.Int64(-1)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestAssemblyLifecycle ingests, scans, compacts and scans again: a
// retired generation's assembly leaves the cache with it, and the
// resident bytes count each decoded column once — an assembly adds
// only its own overhead on top of the columns it references.
func TestAssemblyLifecycle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	if err := store.CreateDir(dir, idThicket(t, idEnsemble(t, 10, 0, 4))); err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	in, err := ingest.New(s, ingest.Options{
		WALPath: filepath.Join(t.TempDir(), "wal"), FlushProfiles: 3, CompactRun: -1, Sync: ingest.SyncNone,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range idEnsemble(t, 11, 100, 9) {
		if err := in.Submit(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	if s.NumSegments() < 3 {
		t.Fatalf("ingest left %d segments, want several", s.NumSegments())
	}

	preds := compile(t, "group!=none")
	fullScan := func(label string) {
		t.Helper()
		got, _, err := plan.ExecuteStore(s, preds)
		if err != nil {
			t.Fatal(err)
		}
		assertThicketsEqual(t, label, naive(t, s, preds), got)
	}
	fullScan("before compaction")
	retired := s.Generations()
	if gens, _ := s.Assemblies(); !slices.Equal(gens, retired) {
		t.Fatalf("assemblies = %v, want every live generation %v", gens, retired)
	}

	if err := ingest.CompactAll(s); err != nil {
		t.Fatal(err)
	}
	if gens, _ := s.Assemblies(); len(gens) != 0 {
		t.Fatalf("assemblies of retired generations %v survive compaction (retired %v)", gens, retired)
	}

	// Columns alone: Load caches every block and builds no assembly.
	if _, err := s.Load(); err != nil {
		t.Fatal(err)
	}
	cols := s.Info()
	fullScan("after compaction")
	gens, asmBytes := s.Assemblies()
	if !slices.Equal(gens, s.Generations()) {
		t.Fatalf("assemblies after compaction = %v, want %v", gens, s.Generations())
	}
	warm := s.Info()
	if warm.CacheEntries != cols.CacheEntries+len(gens) {
		t.Fatalf("warm scan left %d cache entries, want the %d columns plus %d assemblies", warm.CacheEntries, cols.CacheEntries, len(gens))
	}
	if warm.CacheBytes != cols.CacheBytes+asmBytes {
		t.Fatalf("warm scan resident bytes = %d, want columns %d + assembly overhead %d", warm.CacheBytes, cols.CacheBytes, asmBytes)
	}
	if asmBytes <= 0 || asmBytes >= cols.CacheBytes {
		t.Fatalf("assembly overhead %d B against %d B of columns", asmBytes, cols.CacheBytes)
	}
}

// TestConcurrentScansShareAssemblies runs overlapping scans on a cold
// store, so assemblies are built, raced for and served concurrently;
// every answer must still be the naive one (run under -race to check
// that serving shares nothing mutable).
func TestConcurrentScansShareAssemblies(t *testing.T) {
	s := segmentedStore(t, idEnsemble(t, 12, 0, 6), idEnsemble(t, 13, 100, 6), idEnsemble(t, 14, 200, 6))
	wheres := [][]string{{"group!=none"}, {"scale>=4"}, {"group=g1"}, {"id>=100", "id<200"}}
	wants := make([]*core.Thicket, len(wheres))
	for i, w := range wheres {
		wants[i] = naive(t, s, compile(t, w...))
	}
	errs := make(chan error, 4*len(wheres))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range wheres {
				i := (g + k) % len(wheres)
				preds, _ := plan.Compile(wheres[i])
				got, _, err := plan.ExecuteStore(s, preds)
				switch {
				case err != nil:
					errs <- err
				case !got.PerfData.Equal(wants[i].PerfData) || !got.Metadata.Equal(wants[i].Metadata) || !got.Tree.Equal(wants[i].Tree):
					errs <- fmt.Errorf("goroutine %d where %v: answer differs from the naive filter", g, wheres[i])
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
