package main

import (
	"fmt"
	"net/http"
	"sort"

	"repro/internal/telemetry"
)

// phase records one measured stretch of a closed loop: per-type wall
// and CPU time of the reads (every op of the library workload counts as
// a read), pooled read times, write (ingest ack) latency, and the
// process CPU time the phase used.
type phase struct {
	byType, cpuByType map[string][]float64 // ms
	reads, cpuReads   []float64            // ms
	writes            []float64            // ms
	ops, failed       int
	// Process CPU seconds and allocations while the phase ran, and the
	// readings they count from.
	cpu, cpu0              float64
	mallocs, bytes, m0, b0 uint64
}

func startPhase() *phase {
	p := &phase{byType: map[string][]float64{}, cpuByType: map[string][]float64{}}
	p.resume()
	return p
}

// pause stops the phase's CPU and allocation counts while the harness
// does work of its own, such as a set-up between rounds; resume
// restarts them.
func (p *phase) pause() {
	p.cpu += cpuSeconds() - p.cpu0
	m, b := allocs()
	p.mallocs += m - p.m0
	p.bytes += b - p.b0
}

func (p *phase) resume() {
	p.m0, p.b0 = allocs()
	p.cpu0 = cpuSeconds()
}

// stop ends the phase.
func (p *phase) stop() { p.pause() }

// read records one read op.
func (p *phase) read(typ string, t opTime, ok bool) {
	ms, cpuMS := float64(t.wall)/1e6, t.cpu*1e3
	p.byType[typ] = append(p.byType[typ], ms)
	p.reads = append(p.reads, ms)
	p.cpuByType[typ] = append(p.cpuByType[typ], cpuMS)
	p.cpuReads = append(p.cpuReads, cpuMS)
	p.count(ok)
}

// write records one write op.
func (p *phase) write(t opTime, ok bool) {
	p.writes = append(p.writes, float64(t.wall)/1e6)
	p.count(ok)
}

func (p *phase) count(ok bool) {
	p.ops++
	if !ok {
		p.failed++
	}
}

// opsPerCPU is completed ops per second of process CPU time.
func (p *phase) opsPerCPU() float64 { return ratio(float64(p.ops), p.cpu) }

// endToEnd fills the per-op CPU and throughput metrics of a timed
// phase, and prints the wall-clock latencies beside them.
func (p *phase) endToEnd(out *outcome) error {
	for _, typ := range sortedKeys(p.byType) {
		xs, cs := p.byType[typ], p.cpuByType[typ]
		fmt.Printf("# %-10s n=%-6d wall p50=%.4gms p90=%.4gms  cpu p50=%.4gms p90=%.4gms\n",
			typ, len(xs), median(xs), quantile(xs, 0.9), median(cs), quantile(cs, 0.9))
	}
	if len(p.writes) > 0 {
		fmt.Printf("# %-10s n=%-6d wall p50=%.4gms p90=%.4gms\n", "ingest", len(p.writes), median(p.writes), quantile(p.writes, 0.9))
	}
	wallP50, err := geoMeanOfMedians(p.byType)
	if err != nil {
		return err
	}
	fmt.Printf("# reads n=%d wall: p50 (geometric mean of types)=%.4gms p95=%.4gms p99=%.4gms\n",
		len(p.reads), wallP50, quantile(p.reads, 0.95), quantile(p.reads, 0.99))
	p50, err := geoMeanOfMedians(p.cpuByType)
	if err != nil {
		return fmt.Errorf("p50_cpu_ms: %w", err)
	}
	tailMS, err := tail(p.cpuReads, tailQuantile)
	if err != nil {
		return fmt.Errorf("tail_cpu_ms: %w", err)
	}
	out.e2e["p50_cpu_ms"] = p50
	out.e2e["tail_cpu_ms"] = tailMS
	out.e2e["ops_per_cpu_s"] = p.opsPerCPU()
	out.count(p)
	return nil
}

// typeMedians fills server.<type>.p50_ms for the phase's read types.
func (p *phase) typeMedians(out *outcome) {
	for typ, xs := range p.byType {
		out.layers["server."+typ+".p50_ms"] = median(xs)
	}
}

// allocLayers fills the per-op allocation metrics of a phase.
func (p *phase) allocLayers(out *outcome) {
	out.layers["server.kb_per_op"] = ratio(float64(p.bytes)/1024, float64(p.ops))
	out.layers["server.allocs_per_op"] = ratio(float64(p.mallocs), float64(p.ops))
}

// traced is the bookkeeping of a traced phase: telemetry on, counters
// diffed around the whole phase, and each op attributed to a cache
// outcome by the server counters' change across it.
type traced struct {
	delta          telemetryDelta
	byDisp         map[disposition][]float64 // ms
	filtered       int                       // ops with a where= clause
	segmentsSeen   int                       // sum of store segments over filtered ops
	prevTelemetry  bool
	attributionErr error
}

func startTraced() *traced {
	return &traced{delta: newDelta(), byDisp: map[disposition][]float64{},
		prevTelemetry: telemetry.SetEnabled(true)}
}

func (t *traced) stop() { telemetry.SetEnabled(t.prevTelemetry) }

// attributed serves req on s, classifying the op by the counter change.
func (t *traced) attributed(s *serving, req *http.Request, filtered bool) (opTime, int) {
	before := s.counters()
	d, status := s.serve(req)
	disp, err := attribute(before, s.counters())
	if err != nil && t.attributionErr == nil {
		t.attributionErr = err
	}
	t.byDisp[disp] = append(t.byDisp[disp], float64(d.wall)/1e6)
	if filtered {
		t.filtered++
		t.segmentsSeen += s.st.NumSegments()
	}
	return d, status
}

// layers fills the per-layer metrics a traced phase of ops operations
// measured.
func (t *traced) layers(out *outcome, ops int) {
	d, l := t.delta, out.layers
	n := float64(ops)
	med := func(disp disposition) float64 {
		if xs := t.byDisp[disp]; len(xs) > 0 {
			return median(xs)
		}
		return 0
	}
	l["server.hit_us"] = med(dispHit) * 1e3
	l["server.miss_ms"] = med(dispMiss)
	l["server.reload_ms"] = med(dispReload)
	hits, misses := d.counter("thicket_response_cache_hits_total"), d.counter("thicket_response_cache_misses_total")
	l["server.cache_hit_ratio"] = ratio(hits, hits+misses)
	l["server.reloads_per_flush"] = ratio(d.counter("thicket_reloads_total"), d.counter("thicket_ingest_l0_flushes_total"))
	scanned, skipped := d.counter("thicket_plan_blocks_scanned_total"), d.counter("thicket_plan_blocks_skipped_total")
	l["plan.block_skip_ratio"] = ratio(skipped, scanned+skipped)
	l["plan.segments_pruned_ratio"] = ratio(d.counter("thicket_plan_segments_pruned_total"), float64(t.segmentsSeen))
	l["plan.rows_materialized_per_op"] = ratio(d.counter("thicket_plan_rows_materialized_total"), float64(t.filtered))
	sh, sm := d.counter("thicket_store_cache_hits_total"), d.counter("thicket_store_cache_misses_total")
	l["store.cache_hit_ratio"] = ratio(sh, sh+sm)
	l["store.append_ms"] = d.spanMeanMS("store.Append")
	l["dataframe.groupby_ms"] = ratio(d.spanMS("dataframe.GroupBy", "dataframe.GroupByIndexLevel"), n)
	l["dataframe.concat_ms"] = ratio(d.spanMS("dataframe.ConcatRows", "dataframe.ConcatRowsOuter"), n)
	l["dataframe.join_ms"] = ratio(d.spanMS("dataframe.InnerJoinOnIndex"), n)
	l["dataframe.pivot_ms"] = ratio(d.spanMS("dataframe.Pivot"), n)
	l["parallel.dispatches_per_op"] = ratio(d.counter("thicket_parallel_dispatches_total"), n)
	l["parallel.chunks_per_op"] = ratio(d.counter("thicket_parallel_chunks_total"), n)
	// Busy share of the workers a dispatch started: worker time over
	// dispatch wall time times the mean workers per dispatch.
	disp, work := d.spans["parallel.dispatch"], d.spans["parallel.worker"]
	l["parallel.worker_busy_ratio"] = ratio(work.sum*float64(disp.count), disp.sum*float64(work.count))
	fsync := d.hists["thicket_wal_fsync_seconds"]
	l["ingest.fsync_ms"] = ratio(fsync.sum*1e3, float64(fsync.count))
	records := d.counter("thicket_wal_records_total")
	l["ingest.fsyncs_per_record"] = ratio(d.counter("thicket_wal_fsyncs_total"), records)
	l["ingest.wal_bytes_per_profile"] = ratio(d.counter("thicket_wal_bytes_total"), records)
	l["ingest.flush_ms"] = d.spanMeanMS("ingest.flushL0")
	l["ingest.compact_ms"] = d.spanMeanMS("ingest.compact")
}

func sortedKeys(m map[string][]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
