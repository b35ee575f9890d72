package dists

import (
	"math"
)

// Lognormal is the lognormal distribution; when used as a TailDist it is
// conditioned on x >= Xmin (the form the fitter compares against other
// families on the same tail).
type Lognormal struct {
	Mu    float64 // mean of ln X
	Sigma float64 // stddev of ln X
	Xmin  float64 // left truncation point (0 for the full distribution)

	logCCDFXmin float64 // cached ln P(X >= Xmin) under the untruncated law
	cdfXmin     float64 // cached P(X < Xmin) under the untruncated law
}

// NewLognormal constructs a (possibly tail-conditioned) lognormal.
func NewLognormal(mu, sigma, xmin float64) Lognormal {
	l := Lognormal{Mu: mu, Sigma: sigma, Xmin: xmin}
	l.logCCDFXmin = math.Log(l.ccdfFull(xmin))
	l.cdfXmin = l.cdfFull(xmin)
	return l
}

// Name implements TailDist.
func (l Lognormal) Name() string { return "lognormal" }

// NumParams implements TailDist.
func (l Lognormal) NumParams() int { return 2 }

// cdfFull is the untruncated lognormal CDF.
func (l Lognormal) cdfFull(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return NormalCDF((math.Log(x) - l.Mu) / l.Sigma)
}

// ccdfFull is the untruncated complementary CDF.
func (l Lognormal) ccdfFull(x float64) float64 {
	if x <= 0 {
		return 1
	}
	z := (math.Log(x) - l.Mu) / l.Sigma
	return 0.5 * math.Erfc(z/math.Sqrt2)
}

// LogPDF implements TailDist: the log density conditional on x >= Xmin.
func (l Lognormal) LogPDF(x float64) float64 {
	if x < l.Xmin || x <= 0 {
		return math.Inf(-1)
	}
	z := (math.Log(x) - l.Mu) / l.Sigma
	logPDF := -math.Log(x*l.Sigma*math.Sqrt(2*math.Pi)) - z*z/2
	return logPDF - l.logCCDFXmin
}

// CDF implements TailDist: the conditional CDF on [Xmin, ∞).
func (l Lognormal) CDF(x float64) float64 {
	if x <= l.Xmin {
		return 0
	}
	denom := 1 - l.cdfXmin
	if denom <= 0 {
		return 1
	}
	return (l.cdfFull(x) - l.cdfXmin) / denom
}

// Quantile returns the conditional quantile of the tail distribution.
func (l Lognormal) Quantile(q float64) float64 {
	p := l.cdfXmin + q*(1-l.cdfXmin)
	return math.Exp(l.Mu + l.Sigma*NormalQuantile(p))
}

// QuantileFull returns the untruncated lognormal quantile.
func (l Lognormal) QuantileFull(q float64) float64 {
	return math.Exp(l.Mu + l.Sigma*NormalQuantile(q))
}

// FitLognormalFull computes the closed-form MLE on untruncated data
// (every x must be > 0). Both sums run per point over ln x evaluated once
// per run (see RunEnd).
func FitLognormalFull(data []float64) Lognormal {
	runs := logRunsOf(data)
	n := float64(len(data))
	sum := 0.0
	for _, r := range runs {
		for k := 0; k < r.n; k++ {
			sum += r.logX
		}
	}
	mu := sum / n
	ss := 0.0
	for _, r := range runs {
		d := r.logX - mu
		for k := 0; k < r.n; k++ {
			ss += d * d
		}
	}
	sigma := math.Sqrt(ss / n)
	if sigma <= 0 {
		sigma = 1e-9
	}
	return NewLognormal(mu, sigma, 0)
}

// FitLognormalTail computes the MLE of a lognormal conditioned on
// x >= xmin, via Nelder–Mead on (mu, log sigma). The truncated likelihood
// has no closed form. Initialized from the untruncated MLE.
//
// The objective is LogPDF summed over the tail, evaluated once per run of
// equal values with ln x cached per run, and added once per point: the fit
// is bit-identical to summing LogPDF point by point. Reducing the sum to
// Σ ln x and Σ ln²x, or multiplying each term by its run length, would be
// cheaper still, but it reorders the floating-point arithmetic and moves
// the fitted parameters in their last bits, which is enough to change
// Table 4 renders.
func FitLognormalTail(tail []float64, xmin float64) Lognormal {
	init := FitLognormalFull(tail)
	x0 := []float64{init.Mu, math.Log(init.Sigma)}
	best, _ := NelderMead(lognormalTailNegLL(tail, xmin), x0, []float64{0.5, 0.3}, 400)
	return NewLognormal(best[0], math.Exp(best[1]), xmin)
}

// lognormalTailNegLL is FitLognormalTail's objective over (mu, ln sigma).
func lognormalTailNegLL(tail []float64, xmin float64) func(p []float64) float64 {
	runs := logRunsOf(tail)
	return func(p []float64) float64 {
		mu := p[0]
		sigma := math.Exp(p[1])
		l := NewLognormal(mu, sigma, xmin)
		ll := 0.0
		for _, r := range runs {
			x := r.x
			if x < l.Xmin || x <= 0 {
				return math.MaxFloat64
			}
			z := (r.logX - l.Mu) / l.Sigma
			logPDF := -math.Log(x*l.Sigma*math.Sqrt(2*math.Pi)) - z*z/2
			term := logPDF - l.logCCDFXmin
			for k := 0; k < r.n; k++ {
				ll += term
			}
		}
		if math.IsNaN(ll) || math.IsInf(ll, 0) {
			return math.MaxFloat64
		}
		return -ll
	}
}
