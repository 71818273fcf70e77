package server_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/telemetry"
)

func getJSON(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("%s: not JSON: %v\n%s", url, err, raw)
	}
	return out
}

// TestTraceparentPropagation: an incoming W3C traceparent is honoured
// (same trace ID, fresh span ID, stamped on the request's span tree),
// and a request without one gets a freshly minted trace.
func TestTraceparentPropagation(t *testing.T) {
	prev := telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)
	col := &telemetry.Collector{}
	prevCol := telemetry.SetCollector(col)
	defer telemetry.SetCollector(prevCol)

	srv := server.New(buildThicket(t), nil, server.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, _ := http.NewRequest("GET", ts.URL+"/api/info", nil)
	req.Header.Set("traceparent", "00-"+traceID+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// The response announces the server's own span in the same trace.
	tp := resp.Header.Get("traceparent")
	tc, err := telemetry.ParseTraceparent(tp)
	if err != nil {
		t.Fatalf("response traceparent %q: %v", tp, err)
	}
	if tc.TraceID != traceID {
		t.Errorf("response trace ID %s, want caller's %s", tc.TraceID, traceID)
	}
	if tc.SpanID == "00f067aa0ba902b7" {
		t.Error("server echoed the caller's span ID instead of minting its own")
	}

	// The span tree carries the trace ID into the collector.
	var got string
	for _, tree := range col.Roots() {
		if tree.Name == "http /api/info" {
			got = tree.TraceID
		}
	}
	if got != traceID {
		t.Errorf("collected tree TraceID = %q, want %q", got, traceID)
	}

	// A malformed traceparent is replaced by a fresh valid trace.
	req2, _ := http.NewRequest("GET", ts.URL+"/api/info", nil)
	req2.Header.Set("traceparent", "00-zzzz-bad-01")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	tc2, err := telemetry.ParseTraceparent(resp2.Header.Get("traceparent"))
	if err != nil {
		t.Fatalf("minted traceparent invalid: %v", err)
	}
	if tc2.TraceID == traceID {
		t.Error("malformed traceparent inherited the previous trace ID")
	}
}

// TestDebugTraces: the retained ring is inspectable, annotated with
// retention reasons, and honours ?n=.
func TestDebugTraces(t *testing.T) {
	prev := telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)
	col := &telemetry.Collector{MaxTrees: 16}
	prevCol := telemetry.SetCollector(col)
	defer telemetry.SetCollector(prevCol)

	srv := server.New(buildThicket(t), nil, server.Options{Trace: col})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/api/info")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	out := getJSON(t, ts.URL+"/debug/traces?n=2")
	if out["enabled"] != true {
		t.Fatalf("/debug/traces = %v", out)
	}
	if got := out["retained"].(float64); got < 3 {
		t.Errorf("retained = %v, want >= 3", got)
	}
	traces := out["traces"].([]any)
	if len(traces) != 2 {
		t.Fatalf("?n=2 returned %d traces", len(traces))
	}
	tr := traces[0].(map[string]any)
	if tr["reason"] != telemetry.ReasonAll {
		t.Errorf("reason = %v", tr["reason"])
	}
	if tr["trace_id"] == "" || tr["root"] == nil {
		t.Errorf("trace entry incomplete: %v", tr)
	}

	// Without a collector the endpoint reports disabled rather than 404,
	// so probes can distinguish "off" from "wrong path".
	srv2 := server.New(buildThicket(t), nil, server.Options{})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	if out := getJSON(t, ts2.URL+"/debug/traces"); out["enabled"] != false {
		t.Errorf("collector-less /debug/traces = %v", out)
	}
}

// TestDebugAnomaliesAndInjection: an injected slowdown on one endpoint
// drives the watchdog to flag it, surface it at /debug/anomalies, and
// bump the alert counter in /metrics.
func TestDebugAnomaliesAndInjection(t *testing.T) {
	reg := telemetry.NewRegistry()
	wd := telemetry.NewWatchdog(reg, telemetry.WatchdogOptions{
		Warmup:     2,
		MinSamples: 2,
	})
	srv := server.New(buildThicket(t), nil, server.Options{Registry: reg, Watchdog: wd})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	hit := func(n int) {
		for i := 0; i < n; i++ {
			resp, err := http.Get(ts.URL + "/api/info")
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	// Warm the baseline over fast intervals, paced by manual ticks. The
	// warm-up runs in-process and about a second's worth of requests per
	// tick, so a stall of the machine shorter than that — another
	// process, the hypervisor — averages out instead of pushing an
	// interval's mean past the 1.5× regression factor.
	h := srv.Handler()
	for i := 0; i < 3; i++ {
		for j := 0; j < 16384; j++ {
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/api/info", nil))
		}
		if flagged := wd.Tick(); len(flagged) != 0 {
			t.Fatalf("baseline warmup flagged %v", flagged)
		}
	}
	// Inject a regression and fold one loud interval.
	srv.SetInjectedLatency("/api/info", 30*time.Millisecond)
	hit(5)
	flagged := wd.Tick()
	srv.SetInjectedLatency("/api/info", 0)
	if len(flagged) == 0 {
		t.Fatal("injected slowdown not flagged")
	}
	found := false
	for _, a := range flagged {
		if a.Target == "/api/info" {
			found = true
		}
	}
	if !found {
		t.Fatalf("flagged %v, want /api/info", flagged)
	}

	out := getJSON(t, ts.URL+"/debug/anomalies")
	if out["enabled"] != true {
		t.Fatalf("/debug/anomalies = %v", out)
	}
	if n := len(out["anomalies"].([]any)); n == 0 {
		t.Error("anomaly log empty after a flagged regression")
	}
	if n := len(out["baselines"].([]any)); n == 0 {
		t.Error("baselines missing")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(raw), `thicket_watchdog_anomalies_total{target="/api/info"}`) {
		t.Error("alert counter missing from /metrics")
	}
}
