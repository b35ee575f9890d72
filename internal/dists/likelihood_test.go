package dists

import (
	"math"
	"testing"

	"steamstudy/internal/randx"
)

// The tail fitters read ln x from a per-fit cache instead of calling
// LogPDF. These reference objectives and fitters are as they were written
// against LogPDF; the cached ones must agree to the bit, or Table 4
// renders would drift.

func refLognormalTailNegLL(tail []float64, xmin float64) func(p []float64) float64 {
	return func(p []float64) float64 {
		l := NewLognormal(p[0], math.Exp(p[1]), xmin)
		ll := 0.0
		for _, x := range tail {
			ll += l.LogPDF(x)
		}
		if math.IsNaN(ll) || math.IsInf(ll, 0) {
			return math.MaxFloat64
		}
		return -ll
	}
}

func refTruncatedPowerLawNegLL(tail []float64, xmin float64) func(p []float64) float64 {
	return func(p []float64) float64 {
		alpha := p[0]
		lambda := math.Exp(p[1])
		if alpha <= 0 || alpha > 20 || lambda <= 0 || math.IsInf(lambda, 0) {
			return math.MaxFloat64
		}
		t := NewTruncatedPowerLaw(alpha, lambda, xmin)
		if math.IsNaN(t.logNorm) || math.IsInf(t.logNorm, 0) {
			return math.MaxFloat64
		}
		ll := 0.0
		for _, x := range tail {
			ll += t.LogPDF(x)
		}
		if math.IsNaN(ll) || math.IsInf(ll, 0) {
			return math.MaxFloat64
		}
		return -ll
	}
}

func refFitLognormalTail(tail []float64, xmin float64) (mu, sigma float64) {
	init := FitLognormalFull(tail)
	x0 := []float64{init.Mu, math.Log(init.Sigma)}
	best, _ := NelderMead(refLognormalTailNegLL(tail, xmin), x0, []float64{0.5, 0.3}, 400)
	return best[0], math.Exp(best[1])
}

func refFitTruncatedPowerLaw(tail []float64, xmin float64) (alpha, lambda float64) {
	pl := FitPowerLaw(tail, xmin)
	mean := 0.0
	for _, x := range tail {
		mean += x
	}
	mean /= float64(len(tail))
	lambda0 := 1 / (10 * mean)
	if lambda0 <= 0 || math.IsInf(lambda0, 0) || math.IsNaN(lambda0) {
		lambda0 = 1e-6
	}
	negLL := refTruncatedPowerLawNegLL(tail, xmin)
	bestV := math.MaxFloat64
	var best []float64
	for _, l0 := range []float64{lambda0, lambda0 * 100, lambda0 / 100} {
		p, v := NelderMead(negLL, []float64{pl.Alpha, math.Log(l0)}, []float64{0.3, 1.0}, 400)
		if v < bestV {
			bestV = v
			best = p
		}
	}
	return best[0], math.Exp(best[1])
}

func TestTailFitsMatchLogPDFObjectivesExactly(t *testing.T) {
	type tailCase struct {
		name string
		tail []float64
		xmin float64
	}
	var cases []tailCase
	for _, seed := range []int64{1, 3, 7, 11, 42} {
		r := randx.New(seed)
		n := 200 + 300*int(seed%5)

		ln := make([]float64, 0, n)
		for len(ln) < n {
			if x := r.Lognormal(2, 1.3); x >= 4 {
				ln = append(ln, x)
			}
		}
		cases = append(cases, tailCase{"lognormal", ln, 4})

		pl := make([]float64, n)
		for i := range pl {
			pl[i] = r.Pareto(2.2, 3)
		}
		cases = append(cases, tailCase{"pareto", pl, 3})

		tp := make([]float64, n)
		for i := range tp {
			tp[i] = r.TruncatedPowerLaw(1.6, 0.01, 1)
		}
		cases = append(cases, tailCase{"truncated-power-law", tp, 1})

		// Integer minutes, as in the playtime columns: heavy ties at xmin.
		ints := make([]float64, n)
		for i := range ints {
			ints[i] = math.Floor(r.Pareto(1.9, 10))
		}
		cases = append(cases, tailCase{"integer-ties", ints, 10})
	}

	for _, tc := range cases {
		mu, sigma := refFitLognormalTail(tc.tail, tc.xmin)
		l := FitLognormalTail(tc.tail, tc.xmin)
		if math.Float64bits(l.Mu) != math.Float64bits(mu) || math.Float64bits(l.Sigma) != math.Float64bits(sigma) {
			t.Errorf("%s n=%d lognormal: cached (%v, %v), LogPDF (%v, %v)", tc.name, len(tc.tail), l.Mu, l.Sigma, mu, sigma)
		}
		alpha, lambda := refFitTruncatedPowerLaw(tc.tail, tc.xmin)
		tpl := FitTruncatedPowerLaw(tc.tail, tc.xmin)
		if math.Float64bits(tpl.Alpha) != math.Float64bits(alpha) || math.Float64bits(tpl.Lambda) != math.Float64bits(lambda) {
			t.Errorf("%s n=%d truncated power law: cached (%v, %v), LogPDF (%v, %v)", tc.name, len(tc.tail), tpl.Alpha, tpl.Lambda, alpha, lambda)
		}

		// The objectives themselves, over a grid wider than any fit
		// visits: a difference Nelder–Mead happens to absorb still fails.
		objectives := []struct {
			family      string
			cached, ref func([]float64) float64
		}{
			{"lognormal", lognormalTailNegLL(tc.tail, tc.xmin), refLognormalTailNegLL(tc.tail, tc.xmin)},
			{"truncated power law", truncatedPowerLawNegLL(tc.tail, tc.xmin), refTruncatedPowerLawNegLL(tc.tail, tc.xmin)},
		}
		for _, o := range objectives {
			for a := -1.0; a <= 6; a += 0.35 {
				for b := -12.0; b <= 2; b += 0.7 {
					p := []float64{a, b}
					if got, want := o.cached(p), o.ref(p); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s n=%d %s objective at %v: cached %v, LogPDF %v", tc.name, len(tc.tail), o.family, p, got, want)
					}
				}
			}
		}
	}
}

// A point below xmin puts every lognormal evaluation out of support; the
// inlined support check must give up exactly where LogPDF's -Inf did.
func TestLognormalTailFitOutOfSupportMatchesLogPDF(t *testing.T) {
	tail := []float64{2, 5, 9, 30}
	mu, sigma := refFitLognormalTail(tail, 3)
	l := FitLognormalTail(tail, 3)
	if math.Float64bits(l.Mu) != math.Float64bits(mu) || math.Float64bits(l.Sigma) != math.Float64bits(sigma) {
		t.Fatalf("cached (%v, %v), LogPDF (%v, %v)", l.Mu, l.Sigma, mu, sigma)
	}
}
