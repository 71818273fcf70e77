package loadgen

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestScheduleDeterminism is the seed contract: two BuildSchedule calls
// with the same spec produce byte-identical schedules (arrivals, query
// parameters, admission decisions, and client interleave included),
// and a different seed produces a different schedule.
func TestScheduleDeterminism(t *testing.T) {
	spec := MixedSpec(42, 2*time.Second, 200)
	a, err := BuildSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatal("same seed produced different schedules")
	}
	if a.Digest() != b.Digest() {
		t.Fatal("same seed produced different digests")
	}
	if len(a.Events) == 0 {
		t.Fatal("schedule is empty")
	}
	other, err := BuildSchedule(MixedSpec(43, 2*time.Second, 200))
	if err != nil {
		t.Fatal(err)
	}
	if other.Digest() == a.Digest() {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestScheduleOrdering: events are time-ordered with a deterministic
// (client, seq) tie-break, and every event's virtual instant is inside
// the run horizon.
func TestScheduleOrdering(t *testing.T) {
	sched, err := BuildSchedule(MixedSpec(7, time.Second, 300))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(sched.Events); i++ {
		a, b := sched.Events[i-1], sched.Events[i]
		if a.AtNS > b.AtNS {
			t.Fatalf("events out of order at %d: %d > %d", i, a.AtNS, b.AtNS)
		}
		if a.AtNS == b.AtNS && a.Client > b.Client {
			t.Fatalf("tie not broken by client at %d", i)
		}
	}
	for _, ev := range sched.Events {
		if ev.AtNS < 0 || ev.AtNS >= int64(time.Second) {
			t.Fatalf("event at %d ns outside [0, 1s)", ev.AtNS)
		}
	}
}

// TestArrivalRatesHonored: every arrival process delivers its offered
// rate in expectation — over a long horizon the offered count lands
// within a few percent of rate×duration regardless of distribution.
func TestArrivalRatesHonored(t *testing.T) {
	for _, kind := range []string{ArrivalPoisson, ArrivalGamma, ArrivalWeibull} {
		spec := Spec{
			Seed:     11,
			Duration: 20 * time.Second,
			Clients: []ClientSpec{{
				Name:     "c",
				Arrival:  ArrivalSpec{Kind: kind, RatePerSec: 200, Shape: 0.8},
				Workload: WorkloadCacheFriendly,
			}},
		}
		sched, err := BuildSchedule(spec)
		if err != nil {
			t.Fatal(err)
		}
		got := float64(sched.Offered["c"])
		want := 200.0 * 20
		if math.Abs(got-want)/want > 0.10 {
			t.Errorf("%s: offered %v arrivals, want ~%v", kind, got, want)
		}
	}
}

// TestArrivalSamplersDeterministic: a seeded stream replays the exact
// same gaps, and gaps are always positive and finite.
func TestArrivalSamplersDeterministic(t *testing.T) {
	for _, kind := range []string{ArrivalPoisson, ArrivalGamma, ArrivalWeibull} {
		for _, shape := range []float64{0.5, 1.0, 2.5} {
			spec := ArrivalSpec{Kind: kind, RatePerSec: 50, Shape: shape}
			s := newSampler(spec)
			r1 := rand.New(rand.NewSource(99))
			r2 := rand.New(rand.NewSource(99))
			for i := 0; i < 1000; i++ {
				a, b := s.next(r1), s.next(r2)
				if a != b {
					t.Fatalf("%s shape=%v: draw %d differs: %v vs %v", kind, shape, i, a, b)
				}
				if !(a > 0) || math.IsInf(a, 0) || math.IsNaN(a) {
					t.Fatalf("%s shape=%v: bad gap %v", kind, shape, a)
				}
			}
		}
	}
}

// TestTokenBucketSheds: a bucket refilling at a tenth of the offered
// rate sheds roughly nine tenths of arrivals, deterministically.
func TestTokenBucketSheds(t *testing.T) {
	spec := Spec{
		Seed:     3,
		Duration: 10 * time.Second,
		Clients: []ClientSpec{{
			Name:     "burst",
			Arrival:  ArrivalSpec{Kind: ArrivalPoisson, RatePerSec: 100},
			Workload: WorkloadCacheFriendly,
			Bucket:   BucketSpec{RatePerSec: 10, Burst: 5},
		}},
	}
	sched, err := BuildSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	offered, shed := sched.Offered["burst"], sched.Shed["burst"]
	admitted := offered - shed
	if admitted != len(sched.Events) {
		t.Fatalf("admitted %d but %d events", admitted, len(sched.Events))
	}
	// 10/s sustained + 5 burst over 10s: at most ~105 admitted.
	if admitted > 110 || admitted < 90 {
		t.Errorf("admitted %d of %d, want ≈100 (rate 10/s × 10s + burst)", admitted, offered)
	}
	again, _ := BuildSchedule(spec)
	if again.Shed["burst"] != shed {
		t.Error("shedding is not deterministic")
	}
}

func TestBucketAdmit(t *testing.T) {
	b := newBucket(BucketSpec{RatePerSec: 1, Burst: 2})
	for i, want := range []struct {
		at float64
		ok bool
	}{
		{0, true},    // burst token 1
		{0, true},    // burst token 2
		{0, false},   // empty
		{0.5, false}, // half a token refilled
		{1.0, true},  // one whole token
		{10, true},   // refill capped at burst...
		{10, true},
		{10, false}, // ...so the third immediate take fails
	} {
		if got := b.admit(want.at); got != want.ok {
			t.Fatalf("admit #%d at t=%v = %v, want %v", i, want.at, got, want.ok)
		}
	}
	var nilBucket *bucket
	if !nilBucket.admit(0) {
		t.Error("nil bucket must admit everything")
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{1, 1, 1, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("equal shares: %v, want 1", got)
	}
	if got := JainIndex([]float64{1, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("one-hot: %v, want 0.25", got)
	}
	if got := JainIndex(nil); got != 0 {
		t.Errorf("empty: %v, want 0", got)
	}
	if got := JainIndex([]float64{0, 0}); got != 0 {
		t.Errorf("all-zero: %v, want 0", got)
	}
	if got := JainIndex([]float64{2, 4}); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("2:4 split: %v, want 0.9", got)
	}
}

func TestPercentileUS(t *testing.T) {
	ds := []time.Duration{
		1 * time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond,
		4 * time.Millisecond, 100 * time.Millisecond,
	}
	for _, tc := range []struct {
		q    float64
		want int64
	}{
		{0.50, 3000}, {0.90, 100000}, {0.99, 100000}, {0.20, 1000}, {1.0, 100000},
	} {
		if got := percentileUS(ds, tc.q); got != tc.want {
			t.Errorf("p%v = %d us, want %d", tc.q*100, got, tc.want)
		}
	}
	if got := percentileUS(nil, 0.99); got != 0 {
		t.Errorf("empty percentile = %d, want 0", got)
	}
}

func TestSpecValidate(t *testing.T) {
	good := MixedSpec(1, time.Second, 10)
	if err := good.Validate(); err != nil {
		t.Fatalf("mixed spec invalid: %v", err)
	}
	for name, mutate := range map[string]func(*Spec){
		"zero duration":  func(s *Spec) { s.Duration = 0 },
		"no clients":     func(s *Spec) { s.Clients = nil },
		"dup client":     func(s *Spec) { s.Clients[1].Name = s.Clients[0].Name },
		"dup class":      func(s *Spec) { s.Classes[1].Name = s.Classes[0].Name },
		"unknown class":  func(s *Spec) { s.Clients[0].Class = "platinum" },
		"bad arrival":    func(s *Spec) { s.Clients[0].Arrival.Kind = "uniform" },
		"zero rate":      func(s *Spec) { s.Clients[0].Arrival.RatePerSec = 0 },
		"bad workload":   func(s *Spec) { s.Clients[0].Workload = "chaotic" },
		"unnamed client": func(s *Spec) { s.Clients[0].Name = "" },
		"unnamed class":  func(s *Spec) { s.Classes[0].Name = "" },
		"negative rate":  func(s *Spec) { s.Clients[2].Arrival.RatePerSec = -5 },
		"inf rate":       func(s *Spec) { s.Clients[0].Arrival.RatePerSec = math.Inf(1) },
	} {
		s := MixedSpec(1, time.Second, 10)
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
}

// TestWorkloadMixes pins the behavioural contract of each named mix.
func TestWorkloadMixes(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	gen, err := newRequestGen(WorkloadCacheFriendly, r)
	if err != nil {
		t.Fatal(err)
	}
	p0, q0, _ := gen(r, 0)
	pN, qN, _ := gen(r, len(cacheableQueries))
	if p0 != pN || q0 != qN {
		t.Error("cache-friendly mix does not repeat its rotation")
	}

	r = rand.New(rand.NewSource(5))
	gen, _ = newRequestGen(WorkloadCacheHostile, r)
	seen := map[string]bool{}
	for seq := 0; seq < 300; seq++ {
		p, q, ingest := gen(r, seq)
		if ingest {
			t.Fatal("cache-hostile mix produced an ingest")
		}
		if seen[p+"?"+q] {
			t.Fatalf("cache-hostile repeated %s?%s at seq %d", p, q, seq)
		}
		seen[p+"?"+q] = true
	}

	r = rand.New(rand.NewSource(5))
	gen, _ = newRequestGen(WorkloadHotSkew, r)
	counts := map[string]int{}
	for seq := 0; seq < 2000; seq++ {
		p, _, _ := gen(r, seq)
		counts[p]++
	}
	hot := hotEndpoints[0].path
	for p, n := range counts {
		if p != hot && n > counts[hot] {
			t.Errorf("hot-skew: %s (%d) beat the rank-0 endpoint %s (%d)", p, n, hot, counts[hot])
		}
	}
	if counts[hot] < 2000/3 {
		t.Errorf("hot-skew: rank-0 endpoint got only %d of 2000", counts[hot])
	}

	r = rand.New(rand.NewSource(5))
	gen, _ = newRequestGen(WorkloadIngestQuery, r)
	ingests := 0
	for seq := 0; seq < 100; seq++ {
		_, _, ingest := gen(r, seq)
		if ingest {
			ingests++
		}
	}
	if ingests != 25 {
		t.Errorf("ingest-query mix made %d ingests of 100, want 25", ingests)
	}

	if _, err := newRequestGen("nonsense", r); err == nil {
		t.Error("unknown workload accepted")
	}
}
