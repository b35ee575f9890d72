package simworld

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// sortKeyed must leave exactly slices.SortFunc's permutation — the one
// the generator's sort.Slice calls used to leave — on every input: with
// distinct keys through the radix path, and with ties, ±0 or NaN through
// the swap-back fallback, on both sides of the radix threshold.
func TestSortKeyedMatchesPdqsort(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	// A slice, not a map: the cases draw from one stream in a fixed order.
	keys := []struct {
		name string
		draw func() float64
	}{
		{"distinct", rng.Float64},
		{"negative", func() float64 { return -1e6 * rng.Float64() }},
		{"mixed", func() float64 { return 1e3 * rng.NormFloat64() }},
		{"ties", func() float64 { return float64(rng.IntN(8)) }},
		{"wide", func() float64 { return math.Ldexp(rng.Float64()-0.5, rng.IntN(200)-100) }},
		{"signed-0", func() float64 { return [...]float64{0, math.Copysign(0, -1), 1, -1}[rng.IntN(4)] }},
		{"nan", func() float64 { return [...]float64{math.NaN(), rng.Float64()}[rng.IntN(2)] }},
		{"rare-nan", func() float64 { return nanIf(rng.IntN(500) == 0, rng.Float64()) }},
		{"rare-tie", func() float64 { return float64(rng.IntN(1 << 20)) }},
		{"stub-keys", nil}, // position plus Laplace noise, as wirePairs draws them
	}
	for _, c := range keys {
		name, draw := c.name, c.draw
		for _, n := range []int{0, 1, 2, 13, radixMin - 1, radixMin, radixMin + 1, 1000, 5000} {
			for rep := 0; rep < 3; rep++ {
				recs := make([]keyRec, n)
				for i := range recs {
					var k float64
					if draw == nil {
						k = float64(i) + 40*(rng.ExpFloat64()-rng.ExpFloat64())
					} else {
						k = draw()
					}
					recs[i] = newKeyRec(k, rng.Uint32())
				}
				want := slices.Clone(recs)
				slices.SortFunc(want, cmpKeyRec)
				sortKeyed(recs)
				for i := range recs {
					g, w := recs[i], want[i]
					if g.bits != w.bits || uint32(g.val) != uint32(w.val) {
						t.Fatalf("%s n=%d rep=%d: record %d is (%v, %d), pdqsort has (%v, %d)",
							name, n, rep, i, g.key(), uint32(g.val), w.key(), uint32(w.val))
					}
				}
			}
		}
	}
}

func nanIf(nan bool, v float64) float64 {
	if nan {
		return math.NaN()
	}
	return v
}

// A record's key survives the bit mapping exactly, and the mapped bits
// order as the floats do.
func TestSortableBitsRoundTrip(t *testing.T) {
	vals := []float64{math.Inf(-1), -math.MaxFloat64, -1, -math.SmallestNonzeroFloat64,
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 0.5, 1, math.MaxFloat64, math.Inf(1)}
	for i, v := range vals {
		if got := newKeyRec(v, 0).key(); math.Float64bits(got) != math.Float64bits(v) {
			t.Errorf("key(%v) = %v", v, got)
		}
		if i > 0 && sortableBits(vals[i-1]) >= sortableBits(v) {
			t.Errorf("sortableBits(%v) >= sortableBits(%v)", vals[i-1], v)
		}
	}
	if nan := math.NaN(); math.Float64bits(newKeyRec(nan, 0).key()) != math.Float64bits(nan) {
		t.Error("NaN does not round-trip")
	}
}
