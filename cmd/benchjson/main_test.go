package main

import "testing"

// Repeated runs of a benchmark fold into one row per name, in first-run
// order, holding the median of each column and the ns/op range.
func TestSummarizeRepeatedRuns(t *testing.T) {
	raw := []byte(`BenchmarkA-2  1  500 ns/op  100 B/op  7 allocs/op
BenchmarkB-2  3  10 ns/op
BenchmarkA-2  1  300 ns/op  140 B/op  9 allocs/op
BenchmarkA-2  1  900 ns/op  120 B/op  8 allocs/op
`)
	got := summarize(parse(raw, 2))
	if len(got) != 2 || got[0].Name != "BenchmarkA" || got[1].Name != "BenchmarkB" {
		t.Fatalf("rows = %+v, want BenchmarkA then BenchmarkB", got)
	}
	a := got[0]
	if a.Runs != 3 || a.NsPerOp != 500 || a.MinNsPerOp != 300 || a.MaxNsPerOp != 900 {
		t.Fatalf("BenchmarkA = %+v, want 3 runs, median 500, range 300..900", a)
	}
	if *a.BytesPerOp != 120 || *a.AllocsPerOp != 8 || a.Gomaxprocs != 2 {
		t.Fatalf("BenchmarkA = %d B/op %d allocs/op P=%d, want 120, 8, 2", *a.BytesPerOp, *a.AllocsPerOp, a.Gomaxprocs)
	}
	if b := got[1]; b.Runs != 0 || b.NsPerOp != 10 || b.AllocsPerOp != nil {
		t.Fatalf("a single run must pass through unchanged, got %+v", b)
	}
}

func TestMedianEvenCount(t *testing.T) {
	if m := median([]float64{1, 2, 4, 10}); m != 3 {
		t.Fatalf("median = %v, want 3", m)
	}
}
