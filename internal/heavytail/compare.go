package heavytail

import (
	"math"

	"steamstudy/internal/dists"
)

// Comparison is the result of a log-likelihood-ratio test between two
// candidate families fitted to the same tail. R > 0 favors the first
// family; P is the probability of observing |R| this large if the two
// families fit equally well (so P < 0.05 makes the sign of R meaningful).
// These are exactly the R and p columns of the paper's Table 4.
type Comparison struct {
	First, Second string
	R             float64
	P             float64
	// Nested records whether the chi-square (nested-models) p-value was
	// used instead of the Vuong normal approximation. The truncated power
	// law nests the pure power law, so their comparison is nested, as in
	// the Python package.
	Nested bool
}

// Favors reports which family the test supports: +1 first, -1 second,
// 0 inconclusive at the given significance level.
func (c Comparison) Favors(significance float64) int {
	if c.P >= significance {
		return 0
	}
	if c.R > 0 {
		return 1
	}
	return -1
}

// Compare runs the normalized (Vuong) log-likelihood-ratio test of d1
// against d2 over the tail observations.
func Compare(tail []float64, d1, d2 dists.TailDist) Comparison {
	return compare(tail, d1, d2, false)
}

// CompareNested runs the nested-models likelihood-ratio test (chi-square
// with one degree of freedom), appropriate when d2's family is a special
// case of d1's (power law inside truncated power law).
func CompareNested(tail []float64, d1, d2 dists.TailDist) Comparison {
	return compare(tail, d1, d2, true)
}

func compare(tail []float64, d1, d2 dists.TailDist, nested bool) Comparison {
	n := len(tail)
	c := Comparison{First: d1.Name(), Second: d2.Name(), Nested: nested}
	if n == 0 {
		c.P = 1
		return c
	}
	// Each log-likelihood difference is evaluated once per run of equal
	// values and added once per point (see dists.RunEnd), so R and the
	// variance below are bit-identical to the per-point sums.
	type diffRun struct {
		d float64
		n int
	}
	var runs []diffRun
	sum := 0.0
	for i := 0; i < n; {
		j := dists.RunEnd(tail, i)
		x := tail[i]
		d := d1.LogPDF(x) - d2.LogPDF(x)
		if math.IsNaN(d) || math.IsInf(d, 0) {
			// A point outside one family's support: clamp to a large
			// finite penalty so a single point cannot produce NaN
			// statistics.
			if math.IsInf(d, 1) {
				d = 700
			} else {
				d = -700
			}
		}
		runs = append(runs, diffRun{d, j - i})
		for ; i < j; i++ {
			sum += d
		}
	}
	c.R = sum
	if nested {
		// 2R ~ chi-square(1) under the null that the nested (second)
		// model suffices; survival function of chi2_1 at 2R is
		// erfc(sqrt(R)).
		if c.R <= 0 {
			c.P = 1
			return c
		}
		c.P = math.Erfc(math.Sqrt(c.R))
		return c
	}
	// Vuong normalization: sigma^2 is the variance of per-point
	// differences; p = erfc(|R| / (sigma * sqrt(2 n))).
	mean := sum / float64(n)
	ss := 0.0
	for _, r := range runs {
		dd := r.d - mean
		for k := 0; k < r.n; k++ {
			ss += dd * dd
		}
	}
	sigma := math.Sqrt(ss / float64(n))
	if sigma == 0 {
		// Identical likelihoods everywhere: no evidence either way.
		c.P = 1
		c.R = 0
		return c
	}
	c.P = math.Erfc(math.Abs(c.R) / (sigma * math.Sqrt(2*float64(n))))
	return c
}

// ComparisonSet bundles the four tests the paper runs per distribution
// (the four column pairs of Table 4).
type ComparisonSet struct {
	PLvsExp Comparison // power law vs exponential: the heavy-tail gate
	PLvsLN  Comparison // power law vs lognormal
	TPLvsPL Comparison // truncated power law vs power law (nested)
	TPLvsLN Comparison // truncated power law vs lognormal
}

// discretized adapts a continuous family to count data by converting its
// density to a probability mass via CDF differences over unit cells,
// P(k) = CDF(k+1/2) - CDF(k-1/2) — the standard treatment when comparing
// a discrete power law against continuous alternatives on integer data.
type discretized struct {
	dists.TailDist
	cdf func(float64) float64
}

func (w discretized) LogPDF(x float64) float64 {
	p := w.cdf(x+0.5) - w.cdf(x-0.5)
	if p <= 0 {
		return -744 // ln(smallest positive float64)
	}
	return math.Log(p)
}

// CompareAll runs the paper's four tests on a completed Fit. For discrete
// fits, the continuous alternatives are discretized onto unit cells so the
// likelihoods are commensurable with the discrete power law's pmf.
func (f *Fit) CompareAll() ComparisonSet {
	pl := f.powerLawDist()
	var ln, tpl, exp dists.TailDist = f.Lognormal, f.TruncatedPL, f.Exponential
	if f.Discrete {
		ln = discretized{f.Lognormal, f.Lognormal.CDF}
		tpl = discretized{f.TruncatedPL, f.TruncatedPL.CDF}
		exp = discretized{f.Exponential, f.Exponential.CDF}
	}
	return ComparisonSet{
		PLvsExp: Compare(f.Tail, pl, exp),
		PLvsLN:  Compare(f.Tail, pl, ln),
		TPLvsPL: CompareNested(f.Tail, tpl, pl),
		TPLvsLN: Compare(f.Tail, tpl, ln),
	}
}
