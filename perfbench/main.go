// Command perfbench is the repository's benchmark: it drives thicketd
// (in process, through the server's HTTP handler, with no socket) and
// the Thicket library over seeded inputs and prints end-to-end metrics,
// or with -trace 1 a per-layer breakdown. One workload runs per process,
// because the span histograms and the store-cache and parallel-engine
// counters are process-wide. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricSpec is one reported metric; the tables match BENCHMARK.json.
type metricSpec struct {
	name, unit, better string
}

// endToEnd are the metrics of a timed run (telemetry off). Times are
// process CPU time, not wall time: on a shared VM the hypervisor gave
// 1% to 34% of the CPU to other guests from run to run, which moved
// wall-clock set-up and read latencies by up to 1.8x.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"p50_cpu_ms", "ms", "lower"},
	{"tail_cpu_ms", "ms", "lower"},
	{"ops_per_cpu_s", "1/s", "higher"},
	{"mem_mb", "MB", "lower"},
}

// perLayer are the metrics of a traced run. A layer the workload does
// not reach reports 0.
var perLayer = []metricSpec{
	{"server.hit_us", "us", "lower"},
	{"server.cache_hit_ratio", "ratio", "higher"},
	{"server.miss_ms", "ms", "lower"},
	{"server.reload_ms", "ms", "lower"},
	{"server.reloads_per_flush", "ratio", "lower"},
	{"server.self_ms", "ms", "lower"},
	{"server.kb_per_op", "KB", "lower"},
	{"server.allocs_per_op", "count", "lower"},
	{"server.stats.p50_ms", "ms", "lower"},
	{"server.groupby.p50_ms", "ms", "lower"},
	{"server.profiles.p50_ms", "ms", "lower"},
	{"server.query.p50_ms", "ms", "lower"},
	{"server.info.p50_ms", "ms", "lower"},
	{"plan.compile_us", "us", "lower"},
	{"plan.exec_ms", "ms", "lower"},
	{"plan.prune_ms", "ms", "lower"},
	{"plan.filter_ms", "ms", "lower"},
	{"plan.materialize_ms", "ms", "lower"},
	{"plan.block_skip_ratio", "ratio", "higher"},
	{"plan.segments_pruned_ratio", "ratio", "higher"},
	{"plan.rows_materialized_per_op", "count", "lower"},
	{"store.open_ms", "ms", "lower"},
	{"store.load_ms", "ms", "lower"},
	{"store.cache_hit_ratio", "ratio", "higher"},
	{"store.append_ms", "ms", "lower"},
	{"store.bytes_per_profile", "B", "lower"},
	{"core.from_profiles_ms", "ms", "lower"},
	{"core.copy_ms", "ms", "lower"},
	{"core.aggregate_ms", "ms", "lower"},
	{"core.grouped_stats_ms", "ms", "lower"},
	{"core.query_ms", "ms", "lower"},
	{"core.filter_ms", "ms", "lower"},
	{"core.groupby_ms", "ms", "lower"},
	{"core.compose_ms", "ms", "lower"},
	{"dataframe.groupby_ms", "ms", "lower"},
	{"dataframe.concat_ms", "ms", "lower"},
	{"dataframe.join_ms", "ms", "lower"},
	{"dataframe.pivot_ms", "ms", "lower"},
	{"parallel.dispatches_per_op", "count", "lower"},
	{"parallel.chunks_per_op", "count", "lower"},
	{"parallel.worker_busy_ratio", "ratio", "higher"},
	{"ingest.ack_p50_ms", "ms", "lower"},
	{"ingest.ack_p90_ms", "ms", "lower"},
	{"ingest.visible_ms", "ms", "lower"},
	{"ingest.fsync_ms", "ms", "lower"},
	{"ingest.fsyncs_per_record", "ratio", "lower"},
	{"ingest.flush_ms", "ms", "lower"},
	{"ingest.flushes", "count", "lower"},
	{"ingest.compact_ms", "ms", "lower"},
	{"ingest.compactions", "count", "lower"},
	{"ingest.wal_bytes_per_profile", "B", "lower"},
	{"profile.decode_ms", "ms", "lower"},
	{"telemetry.overhead_ratio", "ratio", "lower"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string // this run's scratch directory, deleted at exit
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	checkErrs         []string
	e2e, layers       map[string]float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// count adds a phase's ops and failures.
func (o *outcome) count(p *phase) {
	o.attempted += p.ops
	o.failed += p.failed
}

// check records a failed answer check.
func (o *outcome) check(err error) {
	if err != nil {
		o.checkErrs = append(o.checkErrs, err.Error())
	}
}

var workloads = map[string]func(config) (*outcome, error){
	"explore-cold":   runExploreCold,
	"ingest-explore": runIngestExplore,
	"analyze":        runAnalyze,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: explore-cold, ingest-explore or analyze")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of each measured phase")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics of a traced run")
	flag.Parse()
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %g)\n", cfg.workload, trace, cfg.seconds)
		os.Exit(2)
	}
	// Stores and profile files live under the checkout's build directory.
	scratch := filepath.Join(".bench_build", "work")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(scratch, cfg.workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg.workdir = dir
	printEnv(cfg)
	steal0 := readCPUTimes()
	out, err := run(cfg)
	fmt.Printf("# steal=%.3f (share of CPU time the hypervisor gave to others during the run)\n", readCPUTimes().since(steal0))
	if rmErr := os.RemoveAll(dir); rmErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: remove scratch:", rmErr)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if !report(cfg, out) {
		os.Exit(1)
	}
}

// printEnv prints the environment the figures were taken in.
func printEnv(cfg config) {
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("# go=%s nproc=%d GOMAXPROCS=%d cpu=%q\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel())
}

// cpuModel reads the CPU model name, "" where /proc/cpuinfo is absent.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// cpuTimes are the machine's cumulative CPU times, in clock ticks, from
// the first line of /proc/stat; zero where it is absent.
type cpuTimes struct{ total, steal uint64 }

func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var t cpuTimes
	for i, f := range strings.Fields(line)[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTimes{}
		}
		if i < 8 { // user..steal; guest time is already inside user
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// since is the steal share of the CPU time elapsed after t0.
func (t cpuTimes) since(t0 cpuTimes) float64 {
	return ratio(float64(t.steal-t0.steal), float64(t.total-t0.total))
}

// report prints the metrics table and, last, the result line. It
// reports whether every answer check passed.
func report(cfg config, out *outcome) bool {
	specs, vals := endToEnd, out.e2e
	if cfg.trace {
		specs, vals = perLayer, out.layers
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metric, len(specs))
	for _, m := range specs {
		v := vals[m.name]
		metrics[m.name] = metric{Value: v, Unit: m.unit}
		fmt.Printf("%-32s %14.6g %s\n", m.name, v, m.unit)
	}
	fmt.Printf("# attempted=%d failed=%d fail_ratio=%g answer_checks_failed=%d\n",
		out.attempted, out.failed, ratio(float64(out.failed), float64(out.attempted)), len(out.checkErrs))
	errs := append([]string(nil), out.checkErrs...)
	sort.Strings(errs)
	for i, e := range errs {
		if i == 5 {
			fmt.Printf("# ... %d more\n", len(errs)-i)
			break
		}
		fmt.Println("# check failed:", e)
	}
	correct := len(out.checkErrs) == 0 && out.failed == 0
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, out.attempted, out.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return false
	}
	fmt.Println(string(line))
	return correct
}

// minTailReads is the fewest reads a timed phase ends with, so that the
// pooled tail percentile has twice minBeyond samples beyond it. A phase
// runs for its length and then on until it has them, up to maxStretch
// lengths.
const (
	minTailReads = 400
	maxStretch   = 4
)

// phaseClock tells a closed loop when its phase is over.
type phaseClock struct {
	end, limit time.Time
}

func newClock(length float64) phaseClock {
	now := time.Now()
	d := seconds(length)
	return phaseClock{end: now.Add(d), limit: now.Add(maxStretch * d)}
}

// seconds converts a length in seconds to a duration.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// more reports whether the loop should run another op, given the reads
// it has recorded.
func (c phaseClock) more(reads int) bool {
	now := time.Now()
	return now.Before(c.end) || (reads < minTailReads && now.Before(c.limit))
}
