package main

import (
	"fmt"
	"path/filepath"
	"time"

	thicket "repro"
	"repro/internal/dataframe"
	"repro/internal/profile"
	"repro/internal/sim"
)

// analyzeTypes are the analyze workload's op types, in loop order. The
// allocation-heavy groupby goes last, so the collection it usually
// triggers overlaps the next cycle's filter rather than the short ops,
// whose per-op CPU time would otherwise depend on whether they ran
// beside a collection.
var analyzeTypes = []string{"filter", "aggregate", "query", "compose", "groupby"}

// Fixed answers of the analyze loop over the Figure 13 campaign.
const (
	wantGroups      = 5 // (variant, compiler) pairs
	wantQueryNodes  = 3 // root, kernel group, kernel
	wantComposeLvls = 2 // (CPU|GPU, metric) column levels
)

// rootOf is each variant's call-tree root.
var rootOf = map[sim.RajaVariant]string{
	sim.VariantSequential: "Base_Seq",
	sim.VariantOpenMP:     "Base_OpenMP",
	sim.VariantCUDA:       "Base_CUDA",
}

// filterCount is how many campaign profiles one (variant, problem size)
// selects: each row's configurations at one size times the trials.
func filterCount(v sim.RajaVariant) int {
	n := 0
	for _, row := range campaignRows(campaignTrials) {
		if row.Variant == v {
			n += row.Profiles() / len(row.Sizes)
		}
	}
	return n
}

// notebook is the analyze workload's state: the campaign thicket and
// the per-trial CPU and GPU profiles that Figure 4 composes.
type notebook struct {
	th       *thicket.Thicket
	cpu, gpu [campaignTrials][]*profile.Profile
	f        *thicket.Thicket // last filter result
	kernels  []string
}

func newNotebook(th *thicket.Thicket, ps []*profile.Profile) *notebook {
	nb := &notebook{th: th, kernels: sim.RajaKernelNames()}
	for _, p := range ps {
		meta := func(k string) dataframe.Value { v, _ := p.Meta(k); return v }
		t := meta("trial").Int()
		switch {
		case meta("variant").Str() == string(sim.VariantSequential) &&
			meta("compiler").Str() == "clang++-9.0.0" && meta("compiler optimizations").Str() == "-O2":
			nb.cpu[t] = append(nb.cpu[t], p)
		case meta("variant").Str() == string(sim.VariantCUDA) && meta("block size").Int() == 256:
			nb.gpu[t] = append(nb.gpu[t], p)
		}
	}
	return nb
}

// op runs the i-th op of the loop and checks its answer. Calls into
// core are timed into lt.
func (nb *notebook) op(i int, lt layerTimes) error {
	c := i / len(analyzeTypes)
	v := variants[c%len(variants)]
	size := problemSizes[(c/len(variants))%len(problemSizes)]
	timed := func(name string, f func() error) error {
		start := time.Now()
		err := f()
		lt.add(name, time.Since(start))
		return err
	}
	switch typ := analyzeTypes[i%len(analyzeTypes)]; typ {
	case "filter":
		_ = timed("core.filter", func() error {
			nb.f = nb.th.FilterMetadata(func(m thicket.MetaRow) bool {
				return m.Str("variant") == string(v) && m.Int("problem size") == size
			})
			return nil
		})
		if got, want := nb.f.NumProfiles(), filterCount(v); got != want {
			return fmt.Errorf("filter %s size %d: %d profiles, want %d", v, size, got, want)
		}
	case "groupby":
		var groups []thicket.GroupedThicket
		if err := timed("core.groupby", func() (err error) {
			groups, err = nb.th.GroupBy("variant", "compiler")
			return err
		}); err != nil {
			return err
		}
		if len(groups) != wantGroups {
			return fmt.Errorf("groupby: %d groups, want %d", len(groups), wantGroups)
		}
	case "aggregate":
		if err := timed("core.aggregate", func() error {
			return nb.f.AggregateStats([]thicket.ColKey{{"time (exc)"}}, []string{"mean", "median", "std", "min", "max"})
		}); err != nil {
			return err
		}
		if nb.f.Stats.NRows() == 0 {
			return fmt.Errorf("aggregate: empty stats table")
		}
	case "query":
		k := nb.kernels[c%len(nb.kernels)]
		var q *thicket.Thicket
		if err := timed("core.query", func() (err error) {
			q, err = nb.f.QueryString(". name == " + rootOf[v] + " / * / . name == " + k)
			return err
		}); err != nil {
			return err
		}
		if q.Tree.Len() != wantQueryNodes {
			return fmt.Errorf("query %s: %d nodes, want %d", k, q.Tree.Len(), wantQueryNodes)
		}
	case "compose":
		t := c % campaignTrials
		opts := thicket.Options{IndexBy: "problem size"}
		cpu, err := thicket.FromProfiles(nb.cpu[t], opts)
		if err != nil {
			return err
		}
		gpu, err := thicket.FromProfiles(nb.gpu[t], opts)
		if err != nil {
			return err
		}
		var composed *thicket.Thicket
		if err := timed("core.compose", func() (err error) {
			composed, err = thicket.Compose([]string{"CPU", "GPU"}, []*thicket.Thicket{cpu, gpu})
			return err
		}); err != nil {
			return err
		}
		if n := composed.PerfData.ColIndex().NLevels(); n != wantComposeLvls {
			return fmt.Errorf("compose: %d column levels, want %d", n, wantComposeLvls)
		}
	}
	return nil
}

// runAnalyze runs a notebook-style loop over the campaign, loaded from
// profile JSON files: filter, group, aggregate, query and compose.
func runAnalyze(cfg config) (*outcome, error) {
	out := newOutcome()
	profiles, err := campaign(cfg.seed)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.workdir, "profiles")
	for i, p := range profiles {
		if err := p.Save(filepath.Join(dir, fmt.Sprintf("%05d.json", i))); err != nil {
			return nil, err
		}
	}
	profiles = nil
	heapBase := liveHeapMB()

	var nb *notebook
	var setup, decodeMS, fromMS []float64
	for k := 0; k < setupRepeats; k++ {
		nb = nil
		cpu0 := cpuSeconds()
		start := time.Now()
		ps, err := thicket.LoadProfileDir(dir)
		if err != nil {
			return nil, err
		}
		loaded := time.Now()
		th, err := thicket.FromProfiles(ps, thicket.Options{})
		if err != nil {
			return nil, err
		}
		end := time.Now()
		setup = append(setup, cpuSeconds()-cpu0)
		decodeMS = append(decodeMS, float64(loaded.Sub(start))/1e6)
		fromMS = append(fromMS, float64(end.Sub(loaded))/1e6)
		nb = newNotebook(th, ps)
	}
	out.e2e["setup_s"] = median(setup)
	out.layers["profile.decode_ms"] = median(decodeMS)
	out.layers["core.from_profiles_ms"] = median(fromMS)

	i := 0
	loop := func(ph *phase, length float64, lt layerTimes) {
		for clock := newClock(length); clock.more(len(ph.reads)); i++ {
			var err error
			t := timed(func() { err = nb.op(i, lt) })
			ph.read(analyzeTypes[i%len(analyzeTypes)], t, err == nil)
			out.check(err)
		}
	}
	for ; i < warmupOps; i++ {
		out.check(nb.op(i, layerTimes{}))
	}
	out.e2e["mem_mb"] = liveHeapMB() - heapBase

	length := cfg.seconds
	if cfg.trace {
		length = cfg.seconds / 2 // split between a timed and a traced phase
	}
	lt := layerTimes{}
	ph := startPhase()
	loop(ph, length, lt)
	ph.stop()
	if err := ph.endToEnd(out); err != nil {
		return nil, err
	}
	if !cfg.trace {
		return out, nil
	}
	for _, name := range []string{"core.filter", "core.groupby", "core.aggregate", "core.query", "core.compose"} {
		out.layers[name+"_ms"] = lt.medianMS(name)
	}

	tr := startTraced()
	before := snapTelemetry(nil)
	tp := startPhase()
	loop(tp, length, layerTimes{})
	tp.stop()
	tr.delta.addDiff(before, snapTelemetry(nil))
	tr.stop()
	out.count(tp)
	tr.layers(out, tp.ops)
	out.layers["telemetry.overhead_ratio"] = ratio(ph.opsPerCPU(), tp.opsPerCPU())
	return out, nil
}
