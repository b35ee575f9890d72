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

// Units reported with b.ReportMetric sit between ns/op and B/op; they
// are kept per row, as medians, and the standard columns still parse.
func TestParseReportedMetrics(t *testing.T) {
	raw := []byte(`BenchmarkJ-2  4  2000 ns/op  576.0 B/user  0.80 us/user  64 B/op  2 allocs/op
BenchmarkJ-2  4  3000 ns/op  576.0 B/user  0.60 us/user  64 B/op  2 allocs/op
BenchmarkJ-2  4  1000 ns/op  576.0 B/user  0.70 us/user  64 B/op  2 allocs/op
`)
	got := summarize(parse(raw, 2))
	if len(got) != 1 {
		t.Fatalf("rows = %+v, want one", got)
	}
	j := got[0]
	if j.NsPerOp != 2000 || *j.BytesPerOp != 64 || *j.AllocsPerOp != 2 {
		t.Fatalf("standard columns = %+v", j)
	}
	if j.Metrics["B/user"] != 576 || j.Metrics["us/user"] != 0.7 || len(j.Metrics) != 2 {
		t.Fatalf("metrics = %v, want B/user 576 and median us/user 0.7", j.Metrics)
	}
}
