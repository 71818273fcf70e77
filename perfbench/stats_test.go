package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"
)

func TestGeoMeanOfMedians(t *testing.T) {
	got, err := geoMeanOfMedians(map[string][]float64{
		"fast": {1, 1, 1, 100},    // median 1
		"slow": {4, 400, 400, 50}, // median 225
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := 15.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("geoMeanOfMedians = %v, want %v", got, want)
	}
	// The op mix does not move it: many more fast ops, same medians.
	mix := map[string][]float64{"slow": {4, 225, 400}}
	for i := 0; i < 30; i++ {
		mix["fast"] = append(mix["fast"], 1)
	}
	if got, _ := geoMeanOfMedians(mix); math.Abs(got-15) > 1e-9 {
		t.Fatalf("geoMeanOfMedians moved with the op mix: %v", got)
	}
	if _, err := geoMeanOfMedians(map[string][]float64{"none": nil}); err == nil {
		t.Fatal("no samples: want an error")
	}
	if _, err := geoMeanOfMedians(map[string][]float64{"zero": {0, 0, 0}}); err == nil {
		t.Fatal("zero median: want an error")
	}
}

func TestTailRefusesThinTails(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	p99, err := tail(xs, 0.99)
	if err != nil {
		t.Fatalf("1000 samples: %v", err)
	}
	if want := 990.01; math.Abs(p99-want) > 1e-9 {
		t.Fatalf("p99 = %v, want %v", p99, want)
	}
	// 900 samples leave 9 above the p99: refused.
	if _, err := tail(xs[:900], 0.99); !errors.Is(err, errTooFewSamples) {
		t.Fatalf("900 samples: err = %v, want errTooFewSamples", err)
	}
	// Ties at the top do not count as beyond.
	flat := make([]float64, 2000)
	for i := range flat {
		flat[i] = 5
	}
	if _, err := tail(flat, 0.99); !errors.Is(err, errTooFewSamples) {
		t.Fatalf("constant samples: err = %v, want errTooFewSamples", err)
	}
	if _, err := tail(nil, 0.99); !errors.Is(err, errTooFewSamples) {
		t.Fatalf("no samples: err = %v, want errTooFewSamples", err)
	}
}

func TestAttribute(t *testing.T) {
	base := counters{hits: 10, misses: 4, reloads: 2}
	for _, tc := range []struct {
		name  string
		after counters
		want  disposition
	}{
		{"uncacheable", base, dispNone},
		{"hit", counters{11, 4, 2}, dispHit},
		{"miss", counters{10, 5, 2}, dispMiss},
		{"reload then miss", counters{10, 5, 3}, dispReload},
		{"reload then hit", counters{11, 4, 3}, dispReload},
		{"reload, uncacheable", counters{10, 4, 3}, dispReload},
	} {
		got, err := attribute(base, tc.after)
		if err != nil || got != tc.want {
			t.Errorf("%s: attribute = %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}
	for _, after := range []counters{
		{12, 4, 2}, // two hits: another client
		{11, 5, 2}, // a hit and a miss
		{10, 4, 4}, // two reloads
		{9, 4, 2},  // counter went back
	} {
		if _, err := attribute(base, after); err == nil {
			t.Errorf("attribute(%+v -> %+v): want an error", base, after)
		}
	}
}

// The metric tables must match BENCHMARK.json, which names the metrics
// a run must print.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		code []metricSpec
		file []struct{ Name, Unit, Better string }
	}{{"end_to_end", endToEnd, cfg.EndToEnd}, {"per_layer", perLayer, cfg.PerLayer}} {
		if len(tc.code) != len(tc.file) {
			t.Fatalf("%s: %d metrics in code, %d in BENCHMARK.json", tc.name, len(tc.code), len(tc.file))
		}
		for i, m := range tc.code {
			f := tc.file[i]
			if m.name != f.Name || m.unit != f.Unit || m.better != f.Better {
				t.Errorf("%s[%d]: code %+v, BENCHMARK.json %+v", tc.name, i, m, f)
			}
		}
	}
}

func TestRoundOpMix(t *testing.T) {
	counts := map[int]int{}
	for i := 0; i < roundOps; i++ {
		counts[roundOp(i)]++
	}
	if got, want := counts[-1], roundOps/writeEvery; got != want {
		t.Fatalf("%d ingests per round, want %d", got, want)
	}
	reads := roundOps - counts[-1]
	if got := counts[infoRead]; got != reads/3 {
		t.Fatalf("%d info reads of %d, want a third", got, reads)
	}
	for k := 0; k < infoRead; k++ {
		if counts[k] == 0 {
			t.Errorf("read %d never issued", k)
		}
	}
}
