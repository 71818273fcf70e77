package main

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	thicket "repro"
	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// baseLevels are the LSM levels of the base segments: runs of at most
// three equal levels, above anything a run's ingest can compact up to,
// so background compaction only ever merges newly ingested data.
var baseLevels = [storeSegments]int{6, 6, 5, 5, 5, 4, 4, 4}

// setupTimes are the wall times of one serving set-up's steps and the
// process CPU time of the whole, in seconds.
type setupTimes struct {
	fromProfiles, open, load, cpu float64
	bytesPerProfile               float64 // store size on disk
}

// serving is one in-process thicketd: a directory store with its
// resident thicket, the server's handler and, for ingest workloads, the
// ingester behind POST /ingest.
type serving struct {
	dir   string
	st    *store.Store
	srv   *thicket.Server
	h     http.Handler
	ing   *thicket.Ingester
	reg   *telemetry.Registry
	base  int   // profiles in the store at set-up
	disk  int64 // store bytes on disk at set-up
	times setupTimes
	w     respWriter
}

// flushInterval replaces the ingester's 500 ms timed flush, so L0
// flushes follow the op count alone (one per 16 acks, the default). With
// the timer, a round that ran longer, as it does when the hypervisor
// takes the CPU away, flushed, reloaded and recomputed more often; that
// fed back into the CPU per op and moved ops_per_cpu_s and p50_cpu_ms by
// 0.16 to 0.18 (IQR over median) across ten seeds.
const flushInterval = time.Hour

// setupServing builds a storeSegments-segment store of the encoded
// campaign under dir, opens and loads it, and starts the server (and an
// ingester with thicketd's defaults but flushInterval when withIngest). Only the program's
// own work is timed; decoding the inputs is not.
func setupServing(dir string, campaign [][]byte, withIngest bool) (*serving, error) {
	s := &serving{dir: dir, reg: telemetry.NewRegistry()}
	discard := slog.New(slog.NewTextHandler(io.Discard, nil))
	profiles, err := decode(campaign)
	if err != nil {
		return nil, err
	}
	segs := split(profiles, storeSegments)
	runtime.GC() // start every set-up from the same collector state
	cpu0 := cpuSeconds()
	start := time.Now()
	ths := make([]*core.Thicket, len(segs))
	for i, seg := range segs {
		th, err := thicket.FromProfiles(seg, thicket.Options{})
		if err != nil {
			return nil, fmt.Errorf("segment %d: %w", i, err)
		}
		ths[i] = th
		s.base += th.NumProfiles()
	}
	t1 := time.Now()
	if err := thicket.InitDirStore(dir, ""); err != nil {
		return nil, err
	}
	w, err := thicket.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	for i, th := range ths {
		if err := w.AppendSegment(th, baseLevels[i]); err != nil {
			w.Close()
			return nil, fmt.Errorf("append segment %d: %w", i, err)
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	t2 := time.Now()
	if s.st, err = thicket.OpenStore(dir); err != nil {
		return nil, err
	}
	t3 := time.Now()
	th, err := s.st.Load()
	if err != nil {
		s.st.Close()
		return nil, err
	}
	t4 := time.Now()
	opts := thicket.ServerOptions{Registry: s.reg, SlowQuery: -1, Logger: discard}
	if withIngest {
		s.ing, err = thicket.NewIngester(s.st, thicket.IngestOptions{
			FlushInterval: flushInterval, Registry: s.reg, Logger: discard})
		if err != nil {
			s.st.Close()
			return nil, err
		}
		opts.Ingest = s.ing
	}
	s.srv = thicket.NewServer(th, s.st, opts)
	s.h = s.srv.Handler()
	s.times = setupTimes{
		fromProfiles: t1.Sub(start).Seconds(),
		open:         t3.Sub(t2).Seconds(),
		load:         t4.Sub(t3).Seconds(),
		cpu:          cpuSeconds() - cpu0,
	}
	disk, err := dirBytes(dir)
	if err != nil {
		s.close()
		return nil, err
	}
	s.times.bytesPerProfile = float64(disk) / float64(s.base)
	s.disk = disk
	return s, nil
}

// printData prints the store's data sizes beside the metrics.
func (s *serving) printData() {
	info := s.st.Info()
	fmt.Printf("# data profiles=%d perf_rows=%d segments=%d disk_bytes=%d\n",
		info.Profiles, info.PerfRows, info.Segments, s.disk)
}

// close stops the ingester (if any), closes the store and deletes it.
func (s *serving) close() error {
	var first error
	if s.ing != nil {
		first = s.ing.Close()
	}
	if err := s.st.Close(); err != nil && first == nil {
		first = err
	}
	if err := os.RemoveAll(s.dir); err != nil && first == nil {
		first = err
	}
	return first
}

// counters reads the counters one op is attributed by.
func (s *serving) counters() counters {
	hits, misses := s.srv.CacheStats()
	return counters{hits: hits, misses: misses, reloads: s.reg.SumCounter("thicket_reloads_total")}
}

// serve runs one request through the full middleware stack and returns
// its times and status. The body stays in s.w until the next call.
func (s *serving) serve(req *http.Request) (opTime, int) {
	s.w.reset()
	t := timed(func() { s.h.ServeHTTP(&s.w, req) })
	return t, s.w.code
}

// respWriter is a reusable http.ResponseWriter, so the harness adds no
// per-request allocation of its own beyond the request.
type respWriter struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (w *respWriter) reset() {
	if w.hdr == nil {
		w.hdr = make(http.Header)
	}
	for k := range w.hdr {
		delete(w.hdr, k)
	}
	w.code = http.StatusOK
	w.body.Reset()
}

func (w *respWriter) Header() http.Header         { return w.hdr }
func (w *respWriter) WriteHeader(code int)        { w.code = code }
func (w *respWriter) Write(b []byte) (int, error) { return w.body.Write(b) }

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// ok2xx reports whether status is a success.
func ok2xx(status int) bool { return status >= 200 && status < 300 }
