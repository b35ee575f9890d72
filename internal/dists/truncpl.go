package dists

import (
	"math"
)

// TruncatedPowerLaw is the power law with exponential cutoff,
// p(x) ∝ x^-α e^{-λx} for x >= xmin. Its normalization is
// λ^{α-1} / Γ(1-α, λ·xmin), where Γ is the upper incomplete gamma
// function evaluated at a (possibly negative) first argument.
type TruncatedPowerLaw struct {
	Alpha  float64
	Lambda float64
	Xmin   float64

	logNorm   float64 // cached log of the normalization constant
	gammaXmin float64 // cached Γ(1-α, λ·xmin), the CDF's denominator
}

// NewTruncatedPowerLaw constructs the distribution with its normalization
// precomputed. Requires lambda > 0; for lambda == 0 use PowerLaw.
func NewTruncatedPowerLaw(alpha, lambda, xmin float64) TruncatedPowerLaw {
	t := TruncatedPowerLaw{Alpha: alpha, Lambda: lambda, Xmin: xmin}
	// ∫_{xmin}^∞ x^-α e^-λx dx = λ^{α-1} Γ(1-α, λ·xmin), so the density is
	// x^-α e^-λx · λ^{1-α} / Γ(1-α, λ·xmin).
	t.gammaXmin = UpperIncGamma(1-alpha, lambda*xmin)
	t.logNorm = (1-alpha)*math.Log(lambda) - math.Log(t.gammaXmin)
	return t
}

// Name implements TailDist.
func (t TruncatedPowerLaw) Name() string { return "truncated power law" }

// NumParams implements TailDist.
func (t TruncatedPowerLaw) NumParams() int { return 2 }

// LogPDF implements TailDist.
func (t TruncatedPowerLaw) LogPDF(x float64) float64 {
	if x < t.Xmin {
		return math.Inf(-1)
	}
	return t.logNorm - t.Alpha*math.Log(x) - t.Lambda*x
}

// CDF implements TailDist:
// CDF(x) = 1 - Γ(1-α, λx) / Γ(1-α, λ·xmin).
func (t TruncatedPowerLaw) CDF(x float64) float64 {
	if x <= t.Xmin {
		return 0
	}
	num := UpperIncGamma(1-t.Alpha, t.Lambda*x)
	c := 1 - num/t.gammaXmin
	if c < 0 {
		return 0
	}
	if c > 1 {
		return 1
	}
	return c
}

// FitTruncatedPowerLaw computes the MLE of (α, λ) on tail data >= xmin via
// Nelder–Mead over (α, ln λ). Initialized from the pure power-law MLE with
// a small cutoff. The objective is LogPDF summed over the tail, evaluated
// once per run of equal values and added once per point, bit-identical to
// calling LogPDF (see FitLognormalTail).
func FitTruncatedPowerLaw(tail []float64, xmin float64) TruncatedPowerLaw {
	pl := FitPowerLaw(tail, xmin)
	mean := 0.0
	for _, x := range tail {
		mean += x
	}
	mean /= float64(len(tail))
	lambda0 := 1 / (10 * mean) // weak initial cutoff far into the tail
	if lambda0 <= 0 || math.IsInf(lambda0, 0) || math.IsNaN(lambda0) {
		lambda0 = 1e-6
	}
	negLL := truncatedPowerLawNegLL(tail, xmin)
	// The likelihood surface can be multi-modal in λ when the data is a
	// pure power law; try a few starting cutoffs and keep the best.
	bestV := math.MaxFloat64
	var best []float64
	for _, l0 := range []float64{lambda0, lambda0 * 100, lambda0 / 100} {
		x0 := []float64{pl.Alpha, math.Log(l0)}
		p, v := NelderMead(negLL, x0, []float64{0.3, 1.0}, 400)
		if v < bestV {
			bestV = v
			best = p
		}
	}
	return NewTruncatedPowerLaw(best[0], math.Exp(best[1]), xmin)
}

// truncatedPowerLawNegLL is FitTruncatedPowerLaw's objective over
// (α, ln λ).
func truncatedPowerLawNegLL(tail []float64, xmin float64) func(p []float64) float64 {
	runs := logRunsOf(tail)
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
		for _, r := range runs {
			if r.x < t.Xmin {
				return math.MaxFloat64
			}
			term := t.logNorm - t.Alpha*r.logX - t.Lambda*r.x
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

// Exponential is the shifted exponential p(x) = λ e^{-λ(x-xmin)} for
// x >= xmin — the "not heavy-tailed" null the paper tests power laws
// against.
type Exponential struct {
	Lambda float64
	Xmin   float64
}

// Name implements TailDist.
func (e Exponential) Name() string { return "exponential" }

// NumParams implements TailDist.
func (e Exponential) NumParams() int { return 1 }

// LogPDF implements TailDist.
func (e Exponential) LogPDF(x float64) float64 {
	if x < e.Xmin {
		return math.Inf(-1)
	}
	return math.Log(e.Lambda) - e.Lambda*(x-e.Xmin)
}

// CDF implements TailDist.
func (e Exponential) CDF(x float64) float64 {
	if x <= e.Xmin {
		return 0
	}
	return 1 - math.Exp(-e.Lambda*(x-e.Xmin))
}

// Quantile returns the conditional quantile.
func (e Exponential) Quantile(q float64) float64 {
	return e.Xmin - math.Log(1-q)/e.Lambda
}

// FitExponentialTail computes the closed-form MLE λ = 1/(mean - xmin).
func FitExponentialTail(tail []float64, xmin float64) Exponential {
	mean := 0.0
	for _, x := range tail {
		mean += x
	}
	mean /= float64(len(tail))
	lambda := 1 / (mean - xmin)
	if lambda <= 0 || math.IsInf(lambda, 0) || math.IsNaN(lambda) {
		lambda = 1e9 // degenerate: all mass at xmin
	}
	return Exponential{Lambda: lambda, Xmin: xmin}
}
