package dataframe

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// semiJoinSide draws one side of a semi-join over a small value domain
// of the given flavor, so probe and build share values, with nulls
// mixed in. Flavors: "int", "float" (NaN, −0 and +0 among the values,
// plus NaN payloads not flagged null), "plain" (strings interned one row
// at a time, as v1 store blocks decode), "dict" (codes into a shared
// dictionary holding unused words, in a per-side word order), "bool".
func semiJoinSide(rng *rand.Rand, flavor string, n int, dict *Dict) *Series {
	null := make([]bool, n)
	for r := range null {
		null[r] = rng.Intn(8) == 0
	}
	switch flavor {
	case "int":
		vals := make([]int64, n)
		for r := range vals {
			vals[r] = int64(rng.Intn(12)) - 4
		}
		return &Series{name: "p", kind: Int, i: vals, null: null}
	case "float":
		domain := []float64{math.NaN(), math.Copysign(0, -1), 0, 1.5, -2.25, 1e300, math.Inf(1)}
		vals := make([]float64, n)
		for r := range vals {
			vals[r] = domain[rng.Intn(len(domain))]
		}
		return &Series{name: "p", kind: Float, f: vals, null: null}
	case "plain":
		words := make([]string, n)
		for r := range words {
			words[r] = fmt.Sprintf("w%d", rng.Intn(10))
		}
		s := NewStringSeries("p", words)
		copy(s.null, null)
		return s
	case "dict":
		codes := make([]uint32, n)
		for r := range codes {
			codes[r] = uint32(rng.Intn(dict.Len()))
		}
		s, err := NewStringSeriesFromCodes("p", dict, codes, null)
		if err != nil {
			panic(err)
		}
		return s
	case "bool":
		vals := make([]bool, n)
		for r := range vals {
			vals[r] = rng.Intn(2) == 0
		}
		return &Series{name: "p", kind: Bool, b: vals, null: null}
	}
	panic("unknown flavor " + flavor)
}

// shuffledDict interns w0..w11 plus unused words in a random order.
func shuffledDict(rng *rand.Rand) *Dict {
	d := NewDict()
	words := []string{"unused-a", "unused-b"}
	for i := 0; i < 12; i++ {
		words = append(words, fmt.Sprintf("w%d", i))
	}
	rng.Shuffle(len(words), func(i, j int) { words[i], words[j] = words[j], words[i] })
	for _, w := range words {
		d.Intern(w)
	}
	return d
}

// TestDifferentialSemiJoin checks the semi-join kernel against the
// EncodeKey selection it replaced, for every profile-value kind, for
// mismatched kinds (only nulls can match), and for every null-only or
// empty corner, at one worker and at several.
func TestDifferentialSemiJoin(t *testing.T) {
	flavors := []string{"int", "float", "plain", "dict", "bool"}
	eachWorkerCount(t, func(t *testing.T) {
		for seed := int64(0); seed < 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			for _, pf := range flavors {
				for _, bf := range flavors {
					if pf != bf && rng.Intn(4) > 0 {
						continue // sample the cross-kind pairs
					}
					pd, bd := shuffledDict(rng), shuffledDict(rng)
					if rng.Intn(2) == 0 {
						bd = pd // one dictionary behind both sides
					}
					probe := semiJoinSide(rng, pf, rng.Intn(300), pd)
					build := semiJoinSide(rng, bf, 1+rng.Intn(40), bd)
					var rows []int
					for r := 0; r < build.Len(); r++ {
						if rng.Intn(3) == 0 {
							rows = append(rows, r)
						}
					}
					want, got := refSemiJoin(probe, build, rows), SemiJoin(probe, build, rows)
					if !slices.Equal(want, got) {
						t.Fatalf("seed %d probe %s build %s: kernel kept %v, reference %v", seed, pf, bf, got, want)
					}
				}
			}
		}
	})
}
