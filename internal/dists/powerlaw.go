package dists

import (
	"math"
	"sort"
)

// TailDist is a probability distribution conditioned on x >= Xmin, the form
// in which the Clauset/Alstott methodology compares candidate families.
type TailDist interface {
	// Name identifies the family ("power law", "lognormal", ...).
	Name() string
	// LogPDF is the log density at x (conditional on x >= Xmin).
	LogPDF(x float64) float64
	// CDF is the conditional cumulative distribution at x.
	CDF(x float64) float64
	// NumParams is the number of free parameters (for information criteria).
	NumParams() int
}

// PowerLaw is the continuous power law p(x) = (α-1)/xmin · (x/xmin)^-α
// for x >= xmin, α > 1.
type PowerLaw struct {
	Alpha float64
	Xmin  float64
}

// Name implements TailDist.
func (p PowerLaw) Name() string { return "power law" }

// NumParams implements TailDist.
func (p PowerLaw) NumParams() int { return 1 }

// PDF returns the density at x.
func (p PowerLaw) PDF(x float64) float64 {
	if x < p.Xmin {
		return 0
	}
	return (p.Alpha - 1) / p.Xmin * math.Pow(x/p.Xmin, -p.Alpha)
}

// LogPDF implements TailDist.
func (p PowerLaw) LogPDF(x float64) float64 {
	if x < p.Xmin {
		return math.Inf(-1)
	}
	return math.Log(p.Alpha-1) - math.Log(p.Xmin) - p.Alpha*math.Log(x/p.Xmin)
}

// CDF implements TailDist.
func (p PowerLaw) CDF(x float64) float64 {
	if x <= p.Xmin {
		return 0
	}
	return 1 - math.Pow(x/p.Xmin, 1-p.Alpha)
}

// CCDF returns 1 - CDF(x).
func (p PowerLaw) CCDF(x float64) float64 {
	if x <= p.Xmin {
		return 1
	}
	return math.Pow(x/p.Xmin, 1-p.Alpha)
}

// Quantile returns the conditional quantile at probability q in [0, 1).
func (p PowerLaw) Quantile(q float64) float64 {
	return p.Xmin * math.Pow(1-q, -1/(p.Alpha-1))
}

// FitPowerLaw computes the MLE α for a continuous power law on the tail
// data (all values must be >= xmin): α = 1 + n / Σ ln(xᵢ/xmin).
func FitPowerLaw(tail []float64, xmin float64) PowerLaw {
	sum := 0.0
	for i := 0; i < len(tail); {
		j := RunEnd(tail, i)
		l := math.Log(tail[i] / xmin)
		for ; i < j; i++ {
			sum += l
		}
	}
	alpha := 1 + float64(len(tail))/sum
	if math.IsNaN(alpha) || math.IsInf(alpha, 0) || alpha <= 1 {
		alpha = 1 + 1e-6
	}
	return PowerLaw{Alpha: alpha, Xmin: xmin}
}

// DiscretePowerLaw is the discrete power law P(k) = k^-α / ζ(α, kmin)
// for integer k >= kmin, α > 1.
type DiscretePowerLaw struct {
	Alpha float64
	Kmin  float64
	zeta  float64 // cached normalization ζ(α, kmin)
}

// NewDiscretePowerLaw constructs the distribution with its normalization
// precomputed.
func NewDiscretePowerLaw(alpha, kmin float64) DiscretePowerLaw {
	return DiscretePowerLaw{Alpha: alpha, Kmin: kmin, zeta: HurwitzZeta(alpha, kmin)}
}

// Name implements TailDist.
func (p DiscretePowerLaw) Name() string { return "power law (discrete)" }

// NumParams implements TailDist.
func (p DiscretePowerLaw) NumParams() int { return 1 }

// LogPMF is the log probability mass at integer k.
func (p DiscretePowerLaw) LogPMF(k float64) float64 {
	if k < p.Kmin {
		return math.Inf(-1)
	}
	return -p.Alpha*math.Log(k) - math.Log(p.zeta)
}

// LogPDF implements TailDist (alias of LogPMF for the fitter).
func (p DiscretePowerLaw) LogPDF(x float64) float64 { return p.LogPMF(x) }

// CDF implements TailDist by direct summation up to x (adequate for the
// KS computations on binned data; the sum is cut off with a tail integral
// once terms are negligible).
func (p DiscretePowerLaw) CDF(x float64) float64 {
	if x < p.Kmin {
		return 0
	}
	// Σ_{k=kmin}^{floor(x)} k^-α / ζ(α, kmin)
	// = 1 - ζ(α, floor(x)+1)/ζ(α, kmin)
	return 1 - HurwitzZeta(p.Alpha, math.Floor(x)+1)/p.zeta
}

// FitDiscretePowerLaw computes the MLE α for integer data >= kmin by
// maximizing the exact discrete likelihood with golden-section search.
func FitDiscretePowerLaw(tail []float64, kmin float64) DiscretePowerLaw {
	alpha := GoldenSection(discretePowerLawNegLL(tail, kmin), 1.0001, 8, 1e-6)
	return NewDiscretePowerLaw(alpha, kmin)
}

// discretePowerLawNegLL is FitDiscretePowerLaw's objective over α.
func discretePowerLawNegLL(tail []float64, kmin float64) func(alpha float64) float64 {
	sumLog := 0.0
	for i := 0; i < len(tail); {
		j := RunEnd(tail, i)
		l := math.Log(tail[i])
		for ; i < j; i++ {
			sumLog += l
		}
	}
	n := float64(len(tail))
	return func(alpha float64) float64 {
		return alpha*sumLog + n*math.Log(HurwitzZeta(alpha, kmin))
	}
}

// KSStatistic returns the Kolmogorov–Smirnov distance between the empirical
// CDF of tail (which must be sorted ascending) and the model's conditional
// CDF.
//
// The CDF is evaluated once per run of equal values (see RunEnd). Over a
// run [i, j) it is one value m, compared with the empirical steps k/n for
// k = i..j. Since k/n and then m − k/n are rounded monotonically in k,
// |m − k/n| is largest at k = i or k = j, so testing those two gives the
// per-point maximum exactly.
func KSStatistic(sortedTail []float64, cdf func(float64) float64) float64 {
	n := float64(len(sortedTail))
	maxD := 0.0
	for i := 0; i < len(sortedTail); {
		j := RunEnd(sortedTail, i)
		m := cdf(sortedTail[i])
		lo := float64(i) / n
		hi := float64(j) / n
		if d := math.Abs(m - lo); d > maxD {
			maxD = d
		}
		if d := math.Abs(m - hi); d > maxD {
			maxD = d
		}
		i = j
	}
	return maxD
}

// SortedCopy returns an ascending-sorted copy of xs.
func SortedCopy(xs []float64) []float64 {
	out := make([]float64, len(xs))
	copy(out, xs)
	sort.Float64s(out)
	return out
}
