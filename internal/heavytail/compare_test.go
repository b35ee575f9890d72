package heavytail

import (
	"math"
	"testing"

	"steamstudy/internal/dists"
	"steamstudy/internal/randx"
)

// refCompare is compare as a per-point loop: one log-likelihood
// difference per point, kept in a slice for the variance pass. compare
// evaluates each difference once per run of equal values and must agree
// with it to the bit.
func refCompare(tail []float64, d1, d2 dists.TailDist, nested bool) Comparison {
	n := len(tail)
	c := Comparison{First: d1.Name(), Second: d2.Name(), Nested: nested}
	if n == 0 {
		c.P = 1
		return c
	}
	diffs := make([]float64, 0, n)
	sum := 0.0
	for _, x := range tail {
		d := d1.LogPDF(x) - d2.LogPDF(x)
		if math.IsNaN(d) || math.IsInf(d, 0) {
			if math.IsInf(d, 1) {
				d = 700
			} else {
				d = -700
			}
		}
		diffs = append(diffs, d)
		sum += d
	}
	c.R = sum
	if nested {
		if c.R <= 0 {
			c.P = 1
			return c
		}
		c.P = math.Erfc(math.Sqrt(c.R))
		return c
	}
	mean := sum / float64(n)
	ss := 0.0
	for _, d := range diffs {
		dd := d - mean
		ss += dd * dd
	}
	sigma := math.Sqrt(ss / float64(n))
	if sigma == 0 {
		c.P = 1
		c.R = 0
		return c
	}
	c.P = math.Erfc(math.Abs(c.R) / (sigma * math.Sqrt(2*float64(n))))
	return c
}

// refCompareAll is CompareAll over refCompare.
func refCompareAll(f *Fit) ComparisonSet {
	pl := f.powerLawDist()
	var ln, tpl, exp dists.TailDist = f.Lognormal, f.TruncatedPL, f.Exponential
	if f.Discrete {
		ln = discretized{f.Lognormal, f.Lognormal.CDF}
		tpl = discretized{f.TruncatedPL, f.TruncatedPL.CDF}
		exp = discretized{f.Exponential, f.Exponential.CDF}
	}
	return ComparisonSet{
		PLvsExp: refCompare(f.Tail, pl, exp, false),
		PLvsLN:  refCompare(f.Tail, pl, ln, false),
		TPLvsPL: refCompare(f.Tail, tpl, pl, true),
		TPLvsLN: refCompare(f.Tail, tpl, ln, false),
	}
}

func sameComparison(a, b Comparison) bool {
	return a.First == b.First && a.Second == b.Second && a.Nested == b.Nested &&
		math.Float64bits(a.R) == math.Float64bits(b.R) &&
		math.Float64bits(a.P) == math.Float64bits(b.P)
}

func TestCompareAllMatchesPerPointOracleExactly(t *testing.T) {
	r := randx.New(23)
	counts := make([]float64, 20000)
	for i := range counts {
		counts[i] = float64(r.DiscretePowerLaw(2.2, 1))
	}
	minutes := genLognormal(24, 8000, 3, 1.6)
	for i := range minutes {
		minutes[i] = math.Floor(minutes[i])
	}
	same := make([]float64, 20)
	for i := range same {
		same[i] = 5
	}

	fit := func(name string, data []float64, opts Options) *Fit {
		t.Helper()
		f, err := New(data, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return f
	}
	type fitCase struct {
		name string
		f    *Fit
	}
	cases := []fitCase{
		{"continuous", fit("continuous", genLognormal(21, 5000, 2, 1.2), Options{FixedXmin: 3})},
		{"continuous-integer-ties", fit("continuous-integer-ties", minutes, Options{FixedXmin: 10})},
		{"discrete", fit("discrete", counts, Options{Discrete: true, FixedXmin: 1})},
		// One value: every difference is the same, so σ is 0 up to the
		// rounding of the mean.
		{"single-value", fit("single-value", same, Options{FixedXmin: 5})},
		{"single-value-discrete", fit("single-value-discrete", same, Options{Discrete: true, FixedXmin: 5})},
	}
	// Out-of-support clamps: a power law whose kmin sits above the
	// smallest counts (its LogPDF is -Inf there, clamped to ∓700), and an
	// exponential starting above the continuous tail's xmin.
	clampDiscrete := *cases[2].f
	clampDiscrete.DiscretePL = dists.NewDiscretePowerLaw(clampDiscrete.DiscretePL.Alpha, 3)
	clampContinuous := *cases[0].f
	clampContinuous.Exponential.Xmin = 6
	cases = append(cases, fitCase{"clamp-discrete", &clampDiscrete}, fitCase{"clamp-continuous", &clampContinuous})

	for _, tc := range cases {
		got, want := tc.f.CompareAll(), refCompareAll(tc.f)
		tests := []struct {
			name      string
			got, want Comparison
		}{
			{"PLvsExp", got.PLvsExp, want.PLvsExp},
			{"PLvsLN", got.PLvsLN, want.PLvsLN},
			{"TPLvsPL", got.TPLvsPL, want.TPLvsPL},
			{"TPLvsLN", got.TPLvsLN, want.TPLvsLN},
		}
		for _, c := range tests {
			if !sameComparison(c.got, c.want) {
				t.Errorf("%s %s: run-length %+v, per point %+v", tc.name, c.name, c.got, c.want)
			}
		}
	}
	if c := clampDiscrete.CompareAll().PLvsExp; c.R > -700 {
		t.Errorf("clamp-discrete: PLvsExp R = %v, want the -700 clamp to dominate", c.R)
	}

	// Straight into compare: unsorted input with NaNs and signed zeros,
	// and a single-value tail whose difference (exactly 2) sums without
	// rounding, so σ is exactly 0.
	pl, exp := dists.PowerLaw{Alpha: 2.1, Xmin: 1}, dists.Exponential{Lambda: 0.4, Xmin: 1}
	odd := []float64{2, 2, math.NaN(), math.NaN(), 0, math.Copysign(0, -1), 1, 9, 9, 2, math.Inf(1), 4}
	fives := []float64{5, 5, 5, 5, 5, 5, 5}
	at5, at3 := dists.Exponential{Lambda: 1, Xmin: 5}, dists.Exponential{Lambda: 1, Xmin: 3}
	for _, nested := range []bool{false, true} {
		if got, want := compare(odd, pl, exp, nested), refCompare(odd, pl, exp, nested); !sameComparison(got, want) {
			t.Errorf("unsorted special values nested=%v: run-length %+v, per point %+v", nested, got, want)
		}
		if got, want := compare(fives, at5, at3, nested), refCompare(fives, at5, at3, nested); !sameComparison(got, want) {
			t.Errorf("single value nested=%v: run-length %+v, per point %+v", nested, got, want)
		}
	}
	if c := Compare(fives, at5, at3); c.R != 0 || c.P != 1 {
		t.Errorf("single value: %+v, want the σ = 0 result R 0, P 1", c)
	}
}
