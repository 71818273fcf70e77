package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"path/filepath"
	"strconv"
	"time"

	thicket "repro"
)

// roundOps is the length of one ingest-explore round in operations;
// every writeEvery-th op is an ingest. A round always starts from a
// freshly built store, so a faster program does not grow a bigger one.
const (
	roundOps   = 1200
	writeEvery = 4
)

// ingestReads are the reads an ingest-explore round rotates through:
// cacheable stats and groupby, and the uncached /api/info whose
// profile count shows what is visible.
func ingestReads() []readOp {
	var reads []readOp
	for _, size := range problemSizes {
		q := url.Values{}
		q.Add("where", "problem size="+strconv.FormatInt(size, 10))
		q.Set("metrics", "time (exc)")
		reads = append(reads, readOp{typ: "stats", path: "/api/stats", query: q})
	}
	for _, by := range []string{"compiler", "variant"} {
		q := url.Values{}
		q.Set("by", by)
		q.Set("metrics", "time (exc)")
		reads = append(reads, readOp{typ: "groupby", path: "/api/groupby", query: q})
	}
	return reads
}

var infoOp = readOp{typ: "info", path: "/api/info"}

// roundOp is the i-th op of every round: -1 for an ingest, else an
// index into ingestReads, or infoRead for /api/info. Reads rotate stats
// (one key per problem size), groupby (two keys) and info.
func roundOp(i int) int {
	if i%writeEvery == writeEvery-1 {
		return -1
	}
	j := i - i/writeEvery // reads before this one
	switch j % 3 {
	case 0:
		return (j / 3) % len(problemSizes)
	case 1:
		return len(problemSizes) + (j/3)%2
	}
	return infoRead
}

// infoRead is roundOp's index for /api/info.
var infoRead = len(problemSizes) + 2

// roundResult is what one round observed beyond its latencies.
type roundResult struct {
	acked     []int       // payload indexes acked, in order
	ackAt     []time.Time // when each was acked
	visibleMS []float64
}

// runRound runs one round's ops on s, recording latencies into ph and,
// when tr is set, attributing each op.
func runRound(s *serving, payloads [][]byte, ph *phase, tr *traced) (roundResult, error) {
	reads := ingestReads()
	reqs := make([]*http.Request, roundOps)
	for i := range reqs {
		switch k := roundOp(i); {
		case k < 0:
			req, err := http.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(payloads[i/writeEvery]))
			if err != nil {
				return roundResult{}, err
			}
			reqs[i] = req
		case k == infoRead:
			reqs[i] = infoOp.request()
		default:
			reqs[i] = reads[k].request()
		}
	}
	type info struct {
		at    time.Time
		acked int
		body  []byte
	}
	var res roundResult
	var infos []info
	for i, req := range reqs {
		k := roundOp(i)
		var d opTime
		var status int
		if tr != nil {
			d, status = tr.attributed(s, req, k >= 0 && k < infoRead && reads[k].query.Has("where"))
		} else {
			d, status = s.serve(req)
		}
		ok := ok2xx(status)
		switch {
		case k < 0:
			ph.write(d, ok)
			if ok {
				res.acked = append(res.acked, i/writeEvery)
				res.ackAt = append(res.ackAt, time.Now())
			}
		case k == infoRead:
			ph.read(infoOp.typ, d, ok)
			infos = append(infos, info{time.Now(), len(res.acked), append([]byte(nil), s.w.body.Bytes()...)})
		default:
			ph.read(reads[k].typ, d, ok)
		}
	}
	// Visibility: an acked profile is visible at the first /api/info
	// whose count includes it. Counts never fall and never exceed what
	// was acked.
	next, prev := 0, 0
	for _, in := range infos {
		var v struct {
			Profiles int `json:"profiles"`
		}
		if err := json.Unmarshal(in.body, &v); err != nil {
			return res, fmt.Errorf("/api/info: %w", err)
		}
		shown := v.Profiles - s.base
		if shown < prev || shown > in.acked {
			return res, fmt.Errorf("/api/info shows %d ingested profiles after %d (acked %d)", shown, prev, in.acked)
		}
		prev = shown
		for ; next < shown; next++ {
			res.visibleMS = append(res.visibleMS, float64(in.at.Sub(res.ackAt[next]))/1e6)
		}
	}
	return res, nil
}

// checkDurable closes the ingester, forces a full compaction and checks
// that the store holds the base profiles plus every acked profile,
// each exactly once. Ack means WAL-durable, not yet queryable, so this
// is the first point at which every ack must be visible. Payload i
// carries trial ingestTrialBase+i.
func checkDurable(s *serving, acked []int) error {
	if err := s.ing.Close(); err != nil {
		return fmt.Errorf("close ingester: %w", err)
	}
	if err := thicket.CompactStore(s.st); err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	th, err := s.st.Load()
	if err != nil {
		return fmt.Errorf("load after compaction: %w", err)
	}
	if got, want := th.NumProfiles(), s.base+len(acked); got != want {
		return fmt.Errorf("store holds %d profiles after %d acks on %d, want %d", got, len(acked), s.base, want)
	}
	trials, err := th.Metadata.ColumnByName("trial")
	if err != nil {
		return err
	}
	seen := map[int64]int{}
	for r := 0; r < trials.Len(); r++ {
		if t := trials.At(r).Int(); t >= ingestTrialBase {
			seen[t]++
		}
	}
	for _, i := range acked {
		if n := seen[int64(ingestTrialBase+i)]; n != 1 {
			return fmt.Errorf("acked profile %d visible %d times", i, n)
		}
	}
	if len(seen) != len(acked) {
		return fmt.Errorf("%d ingested profiles visible, %d acked", len(seen), len(acked))
	}
	return nil
}

// runIngestExplore interleaves ingest with cacheable and uncached
// reads, in rounds of roundOps ops over a fresh store each, for as many
// rounds as the phase length allows (at least one).
func runIngestExplore(cfg config) (*outcome, error) {
	out := newOutcome()
	raw, err := encodedCampaign(cfg.seed)
	if err != nil {
		return nil, err
	}
	ingested, err := ingestStream(cfg.seed, roundOps/writeEvery)
	if err != nil {
		return nil, err
	}
	payloads, err := encode(ingested)
	if err != nil {
		return nil, err
	}
	ingested = nil
	heapBase := liveHeapMB()

	var setups []setupTimes
	var mems []float64
	round := 0
	// rounds runs rounds for the phase; tr is nil for the timed phase.
	length := cfg.seconds
	if cfg.trace {
		length = cfg.seconds / 2 // split between a timed and a traced phase
	}
	rounds := func(ph *phase, tr *traced) ([]roundResult, error) {
		var results []roundResult
		for clock := newClock(length); len(results) == 0 || clock.more(len(ph.reads)); round++ {
			ph.pause()
			s, err := setupServing(filepath.Join(cfg.workdir, fmt.Sprintf("store-%d", round)), raw, true)
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, s.times)
			if round == 0 {
				s.printData()
			}
			for _, op := range append(ingestReads(), infoOp) {
				if _, status := s.serve(op.request()); !ok2xx(status) {
					s.close()
					return nil, fmt.Errorf("warm-up %s: status %d", op.path, status)
				}
			}
			mems = append(mems, liveHeapMB()-heapBase)
			var before telemetrySnap
			if tr != nil {
				before = snapTelemetry(s.reg)
			}
			ph.resume()
			res, err := runRound(s, payloads, ph, tr)
			ph.pause()
			if tr != nil {
				tr.delta.addDiff(before, snapTelemetry(s.reg))
			}
			if err == nil {
				err = checkDurable(s, res.acked)
			}
			if cerr := s.close(); err == nil {
				err = cerr
			}
			if err != nil {
				return nil, fmt.Errorf("round %d: %w", round, err)
			}
			ph.resume()
			results = append(results, res)
		}
		return results, nil
	}

	ph := startPhase()
	timed, err := rounds(ph, nil)
	if err != nil {
		return nil, err
	}
	ph.stop()
	if err := ph.endToEnd(out); err != nil {
		return nil, err
	}
	setupLayers(out, setups)
	out.e2e["mem_mb"] = median(mems)
	if !cfg.trace {
		return out, nil
	}
	ph.typeMedians(out)
	ph.allocLayers(out)
	ackP90, err := tail(ph.writes, 0.9)
	if err != nil {
		return nil, fmt.Errorf("ingest.ack_p90_ms: %w", err)
	}
	out.layers["ingest.ack_p50_ms"] = median(ph.writes)
	out.layers["ingest.ack_p90_ms"] = ackP90
	var visible []float64
	for _, r := range timed {
		visible = append(visible, r.visibleMS...)
	}
	out.layers["ingest.visible_ms"] = median(visible)

	tr := startTraced()
	tp := startPhase()
	tracedRounds, err := rounds(tp, tr)
	tr.stop()
	if err != nil {
		return nil, err
	}
	tp.stop()
	out.count(tp)
	if tr.attributionErr != nil {
		return nil, tr.attributionErr
	}
	tr.layers(out, tp.ops)
	n := float64(len(tracedRounds))
	out.layers["ingest.flushes"] = tr.delta.counter("thicket_ingest_l0_flushes_total") / n
	out.layers["ingest.compactions"] = tr.delta.counter("thicket_compactions_total") / n
	out.layers["telemetry.overhead_ratio"] = ratio(ph.opsPerCPU(), tp.opsPerCPU())
	return out, nil
}
