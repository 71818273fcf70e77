package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile; fewer and the percentile is an extrapolation of a handful
// of outliers, so the reducer refuses to report it.
const minBeyond = 10

// tailQuantile is the pooled read percentile reported as tail_cpu_ms.
// Over ten seeds on a 2-vCPU VM the per-read CPU-time p99 spread up to
// 0.10 (IQR over median) where the p95 spread at most 0.06.
const tailQuantile = 0.95

// errTooFewSamples marks a percentile the sample count cannot support.
var errTooFewSamples = errors.New("too few samples")

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail returns the q-quantile of xs only when at least minBeyond
// samples lie strictly above it.
func tail(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("p%g of 0 samples: %w", q*100, errTooFewSamples)
	}
	v := quantile(xs, q)
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want >= %d: %w",
			q*100, len(xs), beyond, minBeyond, errTooFewSamples)
	}
	return v, nil
}

// geoMeanOfMedians is the geometric mean, over op types, of each type's
// median latency. Pooling every type into one median lands the result
// in whatever gap separates the types' distributions, so a small shift
// in the op mix moves it by the gap; the per-type medians do not move.
func geoMeanOfMedians(byType map[string][]float64) (float64, error) {
	if len(byType) == 0 {
		return 0, errors.New("no op types")
	}
	sumLog := 0.0
	for typ, xs := range byType {
		m := median(xs)
		if len(xs) == 0 || !(m > 0) {
			return 0, fmt.Errorf("op type %q: median %v of %d samples is not positive", typ, m, len(xs))
		}
		sumLog += math.Log(m)
	}
	return math.Exp(sumLog / float64(len(byType))), nil
}

// counters is a snapshot of the server counters that attribute one op.
type counters struct {
	hits, misses, reloads int64
}

// disposition classifies one op from the counter change across it. With
// a single closed-loop client nothing else moves the counters, so the
// attribution is exact. A reload outranks the cache outcome: the op paid
// for the reload whatever the cache then did.
type disposition int

const (
	dispNone   disposition = iota // no cache lookup (uncacheable endpoint)
	dispHit                       // served from the response cache
	dispMiss                      // computed and stored
	dispReload                    // swapped in a new resident thicket first
)

func (d disposition) String() string {
	return [...]string{"none", "hit", "miss", "reload"}[d]
}

// attribute classifies the op that moved the counters from before to
// after. It fails when the change is not what one op can do, which would
// mean another client shares the server.
func attribute(before, after counters) (disposition, error) {
	dh, dm, dr := after.hits-before.hits, after.misses-before.misses, after.reloads-before.reloads
	if dh < 0 || dm < 0 || dr < 0 || dh+dm > 1 || dr > 1 {
		return dispNone, fmt.Errorf("counters moved by hits %+d misses %+d reloads %+d across one op", dh, dm, dr)
	}
	switch {
	case dr == 1:
		return dispReload, nil
	case dh == 1:
		return dispHit, nil
	case dm == 1:
		return dispMiss, nil
	}
	return dispNone, nil
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
