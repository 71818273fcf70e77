package store_test

import (
	"context"
	"errors"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/dataframe"
	"repro/internal/ingest"
	"repro/internal/plan"
	"repro/internal/profile"
	"repro/internal/store"
)

// This file covers the layout behind the compiled scan path: the union
// call tree and outer schemas of the live segment set, built from
// headers once per layout generation, rebuilt when a flush or a
// compaction changes the segment set, and never cached by a canceled
// scan.

// ingestBatch streams profiles into s through a fresh ingester and
// closes it, which flushes every acked profile into L0 segments.
func ingestBatch(t *testing.T, s *store.Store, profiles []*profile.Profile) {
	t.Helper()
	in, err := ingest.New(s, ingest.Options{
		WALPath: filepath.Join(t.TempDir(), "wal"), FlushProfiles: 3, CompactRun: -1, Sync: ingest.SyncNone,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range profiles {
		if err := in.Submit(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestLayoutFollowsGenerations(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	if err := store.CreateDir(dir, idThicket(t, idEnsemble(t, 20, 0, 4))); err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ingestBatch(t, s, idEnsemble(t, 21, 100, 6))

	preds := compile(t, "group!=none")
	scan := func(label string) {
		t.Helper()
		got, _, err := plan.ExecuteStore(s, preds)
		if err != nil {
			t.Fatal(err)
		}
		assertThicketsEqual(t, label, naive(t, s, preds), got)
		if gens := s.CachedLayout(); !slices.Equal(gens, s.Generations()) {
			t.Fatalf("%s: cached layout covers %v, want the live generations %v", label, gens, s.Generations())
		}
	}
	scan("first flush")

	// A flush whose profiles bring a new metadata column and a new call
	// path: the next scan must see both through a rebuilt layout.
	late := idEnsemble(t, 22, 200, 5)
	for _, p := range late {
		p.SetMeta("late", dataframe.Str("yes"))
		if err := p.AddSample([]string{"main", "late_region"}, map[string]dataframe.Value{"time": dataframe.Float64(1)}); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Generations()
	ingestBatch(t, s, late)
	if slices.Equal(before, s.Generations()) {
		t.Fatal("the second ingest flushed no segment")
	}
	scan("second flush")
	got, _, err := plan.ExecuteStore(s, preds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := got.Metadata.ColumnByName("late"); err != nil {
		t.Fatalf("scan after the second flush lacks the new metadata column: %v", err)
	}
	if got.Tree.NodeByPath([]string{"main", "late_region"}) == nil {
		t.Fatal("scan after the second flush lacks the new call path")
	}

	if err := ingest.CompactAll(s); err != nil {
		t.Fatal(err)
	}
	if gens := s.CachedLayout(); gens != nil {
		t.Fatalf("layout over retired generations %v survives compaction", gens)
	}
	scan("after compaction")
}

func TestCanceledScanCachesNothing(t *testing.T) {
	s := segmentedStore(t, idEnsemble(t, 23, 0, 6), idEnsemble(t, 24, 100, 6), idEnsemble(t, 25, 200, 6))
	preds := compile(t, "group!=none")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := plan.ExecuteStoreCtx(ctx, s, preds); !errors.Is(err, context.Canceled) {
		t.Fatalf("scan under a canceled context returned %v, want context.Canceled", err)
	}
	if gens, _ := s.Assemblies(); len(gens) != 0 {
		t.Fatalf("canceled scan cached assemblies for generations %v", gens)
	}
	if gens := s.CachedLayout(); gens != nil {
		t.Fatalf("canceled scan cached a layout over %v", gens)
	}

	// Canceled at its first block read: the layout, read whole from
	// headers before any block, may stay; no assembly does.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	obs := &cancelObserver{cancelAt: 1, cancel: cancel}
	if _, _, err := plan.ExecuteStoreCtx(store.WithScanObserver(ctx, obs), s, preds); !errors.Is(err, context.Canceled) {
		t.Fatalf("scan canceled at its first block returned %v, want context.Canceled", err)
	}
	if gens, _ := s.Assemblies(); len(gens) != 0 {
		t.Fatalf("scan canceled mid-way cached assemblies for generations %v", gens)
	}
	got, _, err := plan.ExecuteStore(s, preds)
	if err != nil {
		t.Fatal(err)
	}
	assertThicketsEqual(t, "scan after canceled ones", naive(t, s, preds), got)
}
