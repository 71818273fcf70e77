package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataframe"
	"repro/internal/plan"
	"repro/internal/sim"
)

// readOp is one generated analytical request.
type readOp struct {
	typ   string // endpoint short name: stats, groupby, profiles, query, info
	path  string
	query url.Values
}

func (op readOp) request() *http.Request {
	u := op.path
	if len(op.query) > 0 {
		u += "?" + op.query.Encode()
	}
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		panic(err) // the generator only builds valid URLs
	}
	return req
}

// coldTypes are explore-cold's op types, in rotation order.
var coldTypes = []string{"stats", "groupby", "profiles", "query"}

var (
	problemSizes = []int64{1048576, 2097152, 4194304, 8388608}
	blockSizes   = []int{128, 256, 512, 1024}
	variants     = []sim.RajaVariant{sim.VariantSequential, sim.VariantOpenMP, sim.VariantCUDA}
)

// coldOp generates explore-cold's i-th request. Every request carries a
// where= clause and a distinct req= parameter, so no two share a
// response-cache key and every one runs the compiled plan and the core
// kernels.
func coldOp(r *rand.Rand, i int) readOp {
	q := url.Values{}
	trialRange := func() { // 4 to 12 consecutive trials
		width := 4 + r.Intn(9)
		lo := r.Intn(campaignTrials - width + 1)
		hi := lo + width
		q.Add("where", "trial>="+strconv.Itoa(lo))
		q.Add("where", "trial<"+strconv.Itoa(hi))
	}
	op := readOp{typ: coldTypes[i%len(coldTypes)]}
	switch op.typ {
	case "stats":
		op.path = "/api/stats"
		q.Add("where", "problem size="+strconv.FormatInt(problemSizes[r.Intn(len(problemSizes))], 10))
		trialRange()
		q.Set("metrics", "time (exc)")
		q.Set("aggs", "mean,std,min,max")
	case "groupby":
		op.path = "/api/groupby"
		q.Add("where", "problem size="+strconv.FormatInt(problemSizes[r.Intn(len(problemSizes))], 10))
		trialRange()
		q.Set("by", "compiler")
		q.Set("metrics", "time (exc)")
		q.Set("aggs", "mean,std")
	case "profiles":
		op.path = "/api/profiles"
		q.Add("where", "variant="+string(sim.VariantCUDA))
		q.Add("where", "block size="+strconv.Itoa(blockSizes[r.Intn(len(blockSizes))]))
		trialRange()
	case "query":
		op.path = "/api/query"
		kernels := sim.RajaKernelNames()
		q.Set("q", ". name ^= Base / * / . name == "+kernels[r.Intn(len(kernels))])
		q.Add("where", "variant="+string(variants[r.Intn(len(variants))]))
		q.Add("where", "problem size="+strconv.FormatInt(problemSizes[r.Intn(len(problemSizes))], 10))
	}
	q.Set("req", strconv.Itoa(i))
	op.query = q
	return op
}

// metricKeys turns a metrics= list into column keys.
func metricKeys(q url.Values) []dataframe.ColKey {
	var out []dataframe.ColKey
	for _, m := range splitList(q.Get("metrics")) {
		out = append(out, dataframe.ColKey{m})
	}
	return out
}

func splitList(s string) []string {
	return strings.FieldsFunc(s, func(r rune) bool { return r == ',' })
}

// reference computes what op should answer over the reference thicket,
// built by the library from the generated profiles: plan.NaiveFilter,
// then the endpoint's core call, rendered the way the server renders.
func reference(ref *core.Thicket, op readOp) (any, error) {
	preds, err := plan.Compile(op.query["where"])
	if err != nil {
		return nil, err
	}
	th := plan.NaiveFilter(ref, preds)
	var out map[string]any
	switch op.typ {
	case "stats":
		c := th.Copy()
		if err := c.AggregateStats(metricKeys(op.query), splitList(op.query.Get("aggs"))); err != nil {
			return nil, err
		}
		out = map[string]any{"count": c.Stats.NRows(), "rows": frameRows(c.Stats)}
	case "groupby":
		f, err := th.GroupedStats(splitList(op.query.Get("by")), metricKeys(op.query), splitList(op.query.Get("aggs")))
		if err != nil {
			return nil, err
		}
		out = map[string]any{"count": f.NRows(), "rows": frameRows(f)}
	case "profiles":
		out = map[string]any{"count": th.NumProfiles(), "total": ref.NumProfiles(), "rows": frameRows(th.Metadata)}
	case "query":
		q, err := th.QueryString(op.query.Get("q"))
		if err != nil {
			return nil, err
		}
		out = map[string]any{"kept": q.Tree.Len(), "total": th.Tree.Len(), "nodes": q.NodePaths()}
	default:
		return nil, fmt.Errorf("no reference for op type %q", op.typ)
	}
	// Round-trip through JSON so numbers compare in the form the
	// response carries them.
	b, err := json.Marshal(out)
	if err != nil {
		return nil, err
	}
	var v any
	return v, json.Unmarshal(b, &v)
}

// frameRows renders a frame as the server's JSON records: index levels
// under their names, columns under their "/"-joined keys.
func frameRows(f *dataframe.Frame) []map[string]any {
	rows := make([]map[string]any, f.NRows())
	names := f.Index().Names()
	for r := range rows {
		rec := make(map[string]any, len(names)+f.NCols())
		for l, v := range f.Index().KeyAt(r) {
			rec[names[l]] = cellJSON(v)
		}
		for c := 0; c < f.NCols(); c++ {
			rec[f.ColIndex().Key(c).String()] = cellJSON(f.ColumnAt(c).At(r))
		}
		rows[r] = rec
	}
	return rows
}

func cellJSON(v dataframe.Value) any {
	if v.IsNull() {
		return nil
	}
	switch v.Kind() {
	case dataframe.Float:
		return v.Float()
	case dataframe.Int:
		return v.Int()
	case dataframe.String:
		return v.Str()
	case dataframe.Bool:
		return v.Bool()
	}
	return nil
}

// checkAnswer compares a response body with the reference answer.
func checkAnswer(ref *core.Thicket, op readOp, body []byte) error {
	want, err := reference(ref, op)
	if err != nil {
		return fmt.Errorf("%s reference: %w", op.typ, err)
	}
	var got any
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("%s response: %w", op.typ, err)
	}
	if err := sameJSON(got, want, ""); err != nil {
		return fmt.Errorf("%s %s: %w", op.typ, op.query.Encode(), err)
	}
	return nil
}

// sameJSON compares decoded JSON values, numbers to a relative 1e-9:
// the store path may sum a group's values in another order than the
// reference does.
func sameJSON(got, want any, at string) error {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok || len(g) != len(w) {
			return fmt.Errorf("at %q: got %v, want %v", at, got, want)
		}
		for k, wv := range w {
			if err := sameJSON(g[k], wv, at+"/"+k); err != nil {
				return err
			}
		}
	case []any:
		g, ok := got.([]any)
		if !ok || len(g) != len(w) {
			return fmt.Errorf("at %q: got %d elements, want %d", at, len(g), len(w))
		}
		for i := range w {
			if err := sameJSON(g[i], w[i], at+"/"+strconv.Itoa(i)); err != nil {
				return err
			}
		}
	case float64:
		g, ok := got.(float64)
		if !ok || !closeTo(g, w) {
			return fmt.Errorf("at %q: got %v, want %v", at, got, want)
		}
	default:
		if got != want {
			return fmt.Errorf("at %q: got %v, want %v", at, got, want)
		}
	}
	return nil
}

func closeTo(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Abs(b) }

// replay times, from outside the server, the plan and core calls one
// explore-cold request makes, over the same store. It returns the sum of
// the replayed calls' times, which the request's latency less is the
// server's own share.
func replay(ctx context.Context, s *serving, op readOp, lt layerTimes) (time.Duration, error) {
	t0 := time.Now()
	preds, err := plan.Compile(op.query["where"])
	if err != nil {
		return 0, err
	}
	t1 := time.Now()
	th, _, err := plan.ExecuteStoreCtx(ctx, s.st, preds)
	if err != nil {
		return 0, err
	}
	t2 := time.Now()
	lt.add("plan.compile", t1.Sub(t0))
	lt.add("plan.exec", t2.Sub(t1))
	total := t2.Sub(t0)
	timed := func(name string, f func() error) error {
		start := time.Now()
		err := f()
		d := time.Since(start)
		lt.add(name, d)
		total += d
		return err
	}
	switch op.typ {
	case "stats":
		var c *core.Thicket
		_ = timed("core.copy", func() error { c = th.Copy(); return nil })
		err = timed("core.aggregate", func() error {
			return c.AggregateStats(metricKeys(op.query), splitList(op.query.Get("aggs")))
		})
	case "groupby":
		err = timed("core.grouped_stats", func() error {
			_, err := th.GroupedStats(splitList(op.query.Get("by")), metricKeys(op.query), splitList(op.query.Get("aggs")))
			return err
		})
	case "query":
		err = timed("core.query", func() error {
			_, err := th.QueryString(op.query.Get("q"))
			return err
		})
	}
	if err != nil {
		return 0, err
	}
	// The analyzed plan's stage times, from a second, recorded
	// execution; they are not part of the request's replayed share.
	_, ex, err := plan.AnalyzeStore(ctx, s.st, preds)
	if err != nil {
		return 0, err
	}
	lt.add("plan.prune", time.Duration(ex.Stages.PruneNS))
	lt.add("plan.filter", time.Duration(ex.Stages.FilterNS))
	lt.add("plan.materialize", time.Duration(ex.Stages.MaterializeNS))
	return total, nil
}
