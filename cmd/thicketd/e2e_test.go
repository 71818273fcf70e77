package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	thicket "repro"
	"repro/internal/telemetry"
)

// TestEndToEndWatchdogSelfProfile is the acceptance path of the
// observability stack, assembled exactly as serve() wires it: synthetic
// load with one artificially slowed endpoint must (1) drive the
// latency-baseline watchdog to report the regression at
// /debug/anomalies and bump the alert counter in /metrics, (2) get the
// slow request's trace retained by the tail sampler, (3) land that
// trace in the self-profile ensemble store, which (4) thicket then
// opens and queries like any other performance forest, returning the
// slow call path.
func TestEndToEndWatchdogSelfProfile(t *testing.T) {
	prevEnabled := thicket.EnableTelemetry(true)
	defer thicket.EnableTelemetry(prevEnabled)

	reg := telemetry.NewRegistry()
	wd := thicket.NewWatchdog(reg, thicket.WatchdogOptions{
		Warmup:     2,
		MinSamples: 2,
	})
	col := &thicket.TraceCollector{Policy: &thicket.TracePolicy{
		HeadProbability: 0, // only baseline-relative slowness retains
		Judge:           wd.IsSlow,
	}}
	prevCol := thicket.SetTraceCollector(col)
	defer thicket.SetTraceCollector(prevCol)

	st, err := thicket.OpenStore(writeStore(t))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	th, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	srv := thicket.NewServer(th, st, thicket.ServerOptions{
		Registry: reg,
		Trace:    col,
		Watchdog: wd,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	selfPath := filepath.Join(t.TempDir(), "self.tks")
	sp, err := thicket.NewSelfProfiler(thicket.SelfProfileOptions{
		StorePath: selfPath,
		Collector: col,
		Interval:  time.Hour, // flushed explicitly below
	})
	if err != nil {
		t.Fatal(err)
	}

	const endpoint = "/api/info"
	hit := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			resp, err := http.Get(ts.URL + endpoint)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}

	// Warm the per-endpoint baseline over fast intervals: in-process and
	// over a second's worth of requests per tick (telemetry on), so a
	// stall of the machine shorter than that — another process, the
	// hypervisor — averages out instead of pushing an interval's mean
	// past the 1.5× regression factor.
	h := srv.Handler()
	for i := 0; i < 3; i++ {
		for j := 0; j < 16384; j++ {
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, endpoint, nil))
		}
		if flagged := wd.Tick(); len(flagged) != 0 {
			t.Fatalf("warmup flagged %v", flagged)
		}
	}

	// Inject the regression: requests now sleep well past the baseline.
	srv.SetInjectedLatency(endpoint, 25*time.Millisecond)
	hit(3)
	flagged := wd.Tick()
	srv.SetInjectedLatency(endpoint, 0)

	// (1) The watchdog flags the slowed endpoint...
	found := false
	for _, a := range flagged {
		if a.Target == endpoint {
			found = true
		}
	}
	if !found {
		t.Fatalf("watchdog flagged %v, want %s", flagged, endpoint)
	}
	// ...reports it at /debug/anomalies...
	resp, err := http.Get(ts.URL + "/debug/anomalies")
	if err != nil {
		t.Fatal(err)
	}
	var dbg map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&dbg); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	anomalies, _ := dbg["anomalies"].([]any)
	found = false
	for _, a := range anomalies {
		if a.(map[string]any)["target"] == endpoint {
			found = true
		}
	}
	if !found {
		t.Fatalf("/debug/anomalies missing %s: %v", endpoint, dbg)
	}
	// ...and bumps the alert counter in /metrics.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), `thicket_watchdog_anomalies_total{target="`+endpoint+`"}`) {
		t.Error("alert counter missing from /metrics")
	}

	// (2)+(3) The slow traces were retained and flush into the store.
	n, err := sp.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no slow traces exported to the self-profile store")
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}

	// (4) The self-profile store is a regular ensemble store: thicket
	// opens it, finds the slowed endpoint in the metadata, and a
	// call-path query returns the slow request span.
	selfSt, err := thicket.OpenStore(selfPath)
	if err != nil {
		t.Fatal(err)
	}
	defer selfSt.Close()
	selfTh, err := selfSt.Load()
	if err != nil {
		t.Fatal(err)
	}
	endpointCol, err := selfTh.Metadata.ColumnByName("endpoint")
	if err != nil {
		t.Fatalf("self-profile metadata missing endpoint column: %v", err)
	}
	found = false
	for r := 0; r < selfTh.Metadata.NRows(); r++ {
		if endpointCol.At(r) == thicket.Str("http "+endpoint) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no self-profile row for http %s", endpoint)
	}
	out, err := selfTh.QueryString(". name $= " + strings.ReplaceAll(endpoint, "/", ":"))
	if err != nil {
		t.Fatal(err)
	}
	if out.Tree.Len() == 0 {
		t.Error("call-path query over the self-profile store kept no nodes")
	}
	node := out.Tree.Nodes()[0]
	if !strings.HasSuffix(node.Name(), strings.ReplaceAll(endpoint, "/", ":")) {
		t.Errorf("slow call path root = %q", node.Name())
	}
}
