package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/core"
)

// Set-up and sampling sizes shared by the workloads.
const (
	setupRepeats = 5  // set-ups per run; setup_s is their median
	warmupOps    = 64 // unmeasured ops before the timed phase
	checkEvery   = 32 // every n-th explore-cold response is answer-checked
)

// runExploreCold serves uncached analytical requests from an 8-segment
// store: every request compiles and executes a plan and runs core.
func runExploreCold(cfg config) (*outcome, error) {
	out := newOutcome()
	raw, err := encodedCampaign(cfg.seed)
	if err != nil {
		return nil, err
	}
	heapBase := liveHeapMB()

	var s *serving
	var setups []setupTimes
	for k := 0; k < setupRepeats; k++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
		}
		if s, err = setupServing(filepath.Join(cfg.workdir, fmt.Sprintf("store-%d", k)), raw, false); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, s.times)
	}
	defer s.close()
	s.printData()
	setupLayers(out, setups)

	// The warm-up is the same for every seed, so it leaves the same
	// columns cached and mem_mb does not depend on the seed's keys.
	warm := rand.New(rand.NewSource(0))
	for i := 0; i < warmupOps; i++ {
		op := coldOp(warm, i)
		if _, status := s.serve(op.request()); !ok2xx(status) {
			return nil, fmt.Errorf("warm-up %s: status %d: %s", op.path, status, s.w.body.String())
		}
	}
	r := rand.New(rand.NewSource(cfg.seed))
	n := warmupOps // request numbers continue, so every cache key is new
	next := func() readOp { op := coldOp(r, n); n++; return op }
	out.e2e["mem_mb"] = liveHeapMB() - heapBase

	// Timed phase: telemetry off, checked responses kept for after.
	type kept struct {
		op   readOp
		body []byte
	}
	var checks []kept
	// A traced run splits its length between a timed, a traced and a
	// replay phase.
	length := cfg.seconds
	if cfg.trace {
		length = cfg.seconds / 2.5
	}
	ph := startPhase()
	for clock := newClock(length); clock.more(len(ph.reads)); {
		op := next()
		d, status := s.serve(op.request())
		ph.read(op.typ, d, ok2xx(status))
		if n%checkEvery == 0 {
			checks = append(checks, kept{op, append([]byte(nil), s.w.body.Bytes()...)})
		}
	}
	ph.stop()
	if err := ph.endToEnd(out); err != nil {
		return nil, err
	}
	profiles, err := decode(raw)
	if err != nil {
		return nil, err
	}
	ref, err := core.FromProfiles(profiles, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("reference thicket: %w", err)
	}
	for _, c := range checks {
		out.check(checkAnswer(ref, c.op, c.body))
	}
	if !cfg.trace {
		return out, nil
	}
	ph.typeMedians(out)
	ph.allocLayers(out)

	// Traced phase: the same loop with telemetry on, each op attributed.
	tr := startTraced()
	before := snapTelemetry(s.reg)
	tp := startPhase()
	for end := time.Now().Add(seconds(length)); time.Now().Before(end); {
		op := next()
		d, status := tr.attributed(s, op.request(), true)
		tp.read(op.typ, d, ok2xx(status))
	}
	tp.stop()
	tr.delta.addDiff(before, snapTelemetry(s.reg))
	tr.stop()
	out.count(tp)
	if tr.attributionErr != nil {
		return nil, tr.attributionErr
	}
	tr.layers(out, tp.ops)
	out.layers["telemetry.overhead_ratio"] = ratio(ph.opsPerCPU(), tp.opsPerCPU())

	// Replay phase: each request, then its plan and core calls made
	// from outside; the difference is the server's own time.
	lt := layerTimes{}
	ctx := context.Background()
	for end := time.Now().Add(seconds(length / 2)); time.Now().Before(end); {
		op := next()
		d, status := s.serve(op.request())
		if !ok2xx(status) {
			return nil, fmt.Errorf("replay %s: status %d", op.path, status)
		}
		replayed, err := replay(ctx, s, op, lt)
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", op.path, err)
		}
		lt.add("server.self", d.wall-replayed)
	}
	replayLayers(out, lt)
	return out, nil
}

// setupLayers fills the metrics of the serving set-ups: setup_s and
// the layer times within it, as medians over the set-ups.
func setupLayers(out *outcome, setups []setupTimes) {
	pick := func(f func(setupTimes) float64) float64 {
		xs := make([]float64, len(setups))
		for i, st := range setups {
			xs[i] = f(st)
		}
		return median(xs)
	}
	out.e2e["setup_s"] = pick(func(t setupTimes) float64 { return t.cpu })
	out.layers["core.from_profiles_ms"] = pick(func(t setupTimes) float64 { return t.fromProfiles }) * 1e3
	out.layers["store.open_ms"] = pick(func(t setupTimes) float64 { return t.open }) * 1e3
	out.layers["store.load_ms"] = pick(func(t setupTimes) float64 { return t.load }) * 1e3
	out.layers["store.bytes_per_profile"] = pick(func(t setupTimes) float64 { return t.bytesPerProfile })
}

// replayLayers fills the metrics of the replayed plan and core calls.
func replayLayers(out *outcome, lt layerTimes) {
	l := out.layers
	l["server.self_ms"] = lt.medianMS("server.self")
	l["plan.compile_us"] = lt.medianMS("plan.compile") * 1e3
	l["plan.exec_ms"] = lt.medianMS("plan.exec")
	l["plan.prune_ms"] = lt.medianMS("plan.prune")
	l["plan.filter_ms"] = lt.medianMS("plan.filter")
	l["plan.materialize_ms"] = lt.medianMS("plan.materialize")
	l["core.copy_ms"] = lt.medianMS("core.copy")
	l["core.aggregate_ms"] = lt.medianMS("core.aggregate")
	l["core.grouped_stats_ms"] = lt.medianMS("core.grouped_stats")
	l["core.query_ms"] = lt.medianMS("core.query")
}
