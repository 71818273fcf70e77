package main

import (
	"runtime"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

// layerTimes collects the harness's own timings of calls into the
// layers' public functions, by name.
type layerTimes map[string][]float64 // name -> milliseconds

func (lt layerTimes) add(name string, d time.Duration) {
	lt[name] = append(lt[name], float64(d)/1e6)
}

// medianMS is the median of name's timings in ms, 0 when never timed.
func (lt layerTimes) medianMS(name string) float64 {
	if len(lt[name]) == 0 {
		return 0
	}
	return median(lt[name])
}

// hist is a histogram's observation count and sum, in seconds.
type hist struct {
	count int64
	sum   float64
}

// telemetrySnap is a point-in-time copy of the counters and histograms
// the program already records: the process-wide registry (span
// durations, parallel-engine and store-cache counters) and the private
// registry of the serving workloads' server and ingester.
type telemetrySnap struct {
	spans    map[string]hist
	counters map[string]int64
	hists    map[string]hist
}

// defaultCounters are process-wide counter families.
var defaultCounters = []string{
	"thicket_parallel_dispatches_total",
	"thicket_parallel_chunks_total",
	"thicket_store_cache_hits_total",
	"thicket_store_cache_misses_total",
}

// privateCounters are counter families of one server and its ingester.
var privateCounters = []string{
	"thicket_reloads_total",
	"thicket_response_cache_hits_total",
	"thicket_response_cache_misses_total",
	"thicket_plan_blocks_scanned_total",
	"thicket_plan_blocks_skipped_total",
	"thicket_plan_rows_materialized_total",
	"thicket_plan_segments_pruned_total",
	"thicket_ingest_l0_flushes_total",
	"thicket_compactions_total",
	"thicket_wal_records_total",
	"thicket_wal_bytes_total",
	"thicket_wal_fsyncs_total",
}

// privateHists are histogram families of one server and its ingester.
var privateHists = []string{"thicket_wal_fsync_seconds"}

// snapTelemetry copies the counters; priv may be nil.
func snapTelemetry(priv *telemetry.Registry) telemetrySnap {
	s := telemetrySnap{spans: map[string]hist{}, counters: map[string]int64{}, hists: map[string]hist{}}
	telemetry.Default.VisitHistograms("thicket_span_seconds", func(kv []string, h *telemetry.Histogram) {
		for i := 0; i+1 < len(kv); i += 2 {
			if kv[i] == "span" {
				c, sum := h.Snapshot()
				s.spans[kv[i+1]] = hist{c, sum}
			}
		}
	})
	for _, name := range defaultCounters {
		s.counters[name] = telemetry.Default.SumCounter(name)
	}
	if priv != nil {
		for _, name := range privateCounters {
			s.counters[name] = priv.SumCounter(name)
		}
		for _, name := range privateHists {
			var agg hist
			priv.VisitHistograms(name, func(_ []string, h *telemetry.Histogram) {
				c, sum := h.Snapshot()
				agg.count += c
				agg.sum += sum
			})
			s.hists[name] = agg
		}
	}
	return s
}

// telemetryDelta is the change between two snapshots. Several may be
// summed, one per serving set-up a phase used.
type telemetryDelta telemetrySnap

func newDelta() telemetryDelta {
	return telemetryDelta{spans: map[string]hist{}, counters: map[string]int64{}, hists: map[string]hist{}}
}

// addDiff accumulates after minus before into d.
func (d telemetryDelta) addDiff(before, after telemetrySnap) {
	for name, a := range after.spans {
		b := before.spans[name]
		h := d.spans[name]
		d.spans[name] = hist{h.count + a.count - b.count, h.sum + a.sum - b.sum}
	}
	for name, a := range after.counters {
		d.counters[name] += a - before.counters[name]
	}
	for name, a := range after.hists {
		b := before.hists[name]
		h := d.hists[name]
		d.hists[name] = hist{h.count + a.count - b.count, h.sum + a.sum - b.sum}
	}
}

// spanMS is the total time in ms spent in spans named any of names.
func (d telemetryDelta) spanMS(names ...string) float64 {
	total := 0.0
	for _, n := range names {
		total += d.spans[n].sum * 1e3
	}
	return total
}

// spanMeanMS is the mean duration in ms of spans named name.
func (d telemetryDelta) spanMeanMS(name string) float64 {
	h := d.spans[name]
	return ratio(h.sum*1e3, float64(h.count))
}

// counter is a counter family's change.
func (d telemetryDelta) counter(name string) float64 { return float64(d.counters[name]) }

// opTime is one op's wall time and the process CPU time spent while it
// ran. With one closed-loop client the CPU time is the op's own work plus
// whatever background work (collector, flush, compaction) overlapped it;
// unlike wall time it does not grow when the hypervisor gives the CPU to
// another guest.
type opTime struct {
	wall time.Duration
	cpu  float64 // seconds
}

// timed runs f and measures it.
func timed(f func()) opTime {
	c0 := cpuSeconds()
	start := time.Now()
	f()
	wall := time.Since(start)
	return opTime{wall: wall, cpu: cpuSeconds() - c0}
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// liveHeapMB is the live heap in MB after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// allocs is the process's cumulative allocation count and bytes.
func allocs() (n, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}
