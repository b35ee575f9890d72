package dists

import "math"

// RunEnd returns the index just past the run of values bit-identical to
// xs[i] that starts at i. The likelihood loops walk their data run by run:
// a term that is a function of x alone is evaluated once per run and then
// added to the running sum once per point, in the original order, so every
// sum is bit-identical to the per-point loop. Multiplying the term by the
// run length, or folding the sum into Σ ln x, rounds differently and would
// move Table 4 in its last bits.
//
// Runs compare bits, not values: +0 and -0 stay apart, and NaNs share a
// run only with the same payload, so no term can tell two points of one
// run apart. Unsorted input is still correct; sorted input (every tail
// heavytail builds) gives one run per distinct value.
func RunEnd(xs []float64, i int) int {
	b := math.Float64bits(xs[i])
	j := i + 1
	for j < len(xs) && math.Float64bits(xs[j]) == b {
		j++
	}
	return j
}

// logRun is one run of a tail with its ln x, which the Nelder–Mead
// objectives read on every evaluation instead of calling math.Log.
type logRun struct {
	x, logX float64
	n       int
}

// logRunsOf groups tail into runs (see RunEnd) and caches ln x per run.
func logRunsOf(tail []float64) []logRun {
	var runs []logRun
	for i := 0; i < len(tail); {
		j := RunEnd(tail, i)
		runs = append(runs, logRun{x: tail[i], logX: math.Log(tail[i]), n: j - i})
		i = j
	}
	return runs
}
