// Command benchjson runs a benchmark suite and records its measurements
// in a machine-readable JSON file, seeding the repo's performance
// trajectory files (BENCH_analysis.json, BENCH_obs.json,
// BENCH_datapath.json, BENCH_scale.json).
//
//	go run ./cmd/benchjson -out BENCH_analysis.json
//
// It shells out to `go test -bench` so the numbers are exactly what the
// standard benchmark harness reports. Parallel suites run once with
// GOMAXPROCS=1 and once with every core, so a workers=max measurement is
// never mistaken for a parallel speedup on a machine that could not have
// produced one: each recorded result carries the GOMAXPROCS it actually
// ran under (parsed from the harness's -N name suffix), and the file
// header records the host's CPU count. On a single-CPU host the two
// passes coincide and only one is run. Every result also records the
// child process's MaxRSS, so the trajectory files track memory as well
// as time. With -count N every benchmark runs N times per pass; its row
// then records the median ns/op (and median B/op and allocs/op) with the
// min and max ns/op beside it, so one noisy iteration cannot pass for
// the trajectory:
//
//	go run ./cmd/benchjson -count 5 -out BENCH_datapath.json -pkg ./internal/dataset -bench '^BenchmarkDatapath'
//
// Units a benchmark reports with b.ReportMetric (µs/user, B/user, ...)
// are kept per row under "metrics", as medians for repeated runs. With
// -baseline FILE an earlier run, such as the parent commit's, is
// embedded under "baseline", so one file holds a before/after pair
// measured on the same host.
//
// With -scale it instead drives the out-of-core pipeline end to end —
// sharded generate → fsck → streaming Table 4 as separate processes
// under a fixed RSS budget — and records each stage's wall time and
// MaxRSS into BENCH_scale.json, exiting non-zero if any stage exceeds
// the budget:
//
//	go run ./cmd/benchjson -scale -users 5000000 -max-rss-mb 2048 -out BENCH_scale.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// tier2Pattern selects the benchmarks named in the perf acceptance
// criteria; their sub-benchmarks (workers=1 / workers=max, full / ranked)
// ride along automatically.
const tier2Pattern = "^(BenchmarkRunAllRender|BenchmarkHeavytailFit|BenchmarkTable4Classification|BenchmarkSpearman100k)$"

// Result is one benchmark measurement. BytesPerOp and AllocsPerOp are
// present only when the benchmark reports allocations. A row of a
// repeated run (-count N > 1) holds the median of its Runs runs in
// Iterations, NsPerOp, BytesPerOp and AllocsPerOp, and the fastest and
// slowest run in MinNsPerOp and MaxNsPerOp. MaxRSSBytes is
// the peak resident set of the child process that produced the line —
// for `go test -bench` runs that is the whole test binary pass (shared
// by every result of the pass), for -scale stages it is the stage
// process alone.
type Result struct {
	Name        string  `json:"name"`
	Gomaxprocs  int     `json:"gomaxprocs"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  *int64  `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64  `json:"allocs_per_op,omitempty"`
	Runs        int     `json:"runs,omitempty"`
	MinNsPerOp  float64 `json:"min_ns_per_op,omitempty"`
	MaxNsPerOp  float64 `json:"max_ns_per_op,omitempty"`
	MaxRSSBytes int64   `json:"max_rss_bytes,omitempty"`
	// Metrics holds the units reported with b.ReportMetric.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Scale describes a -scale pipeline run: the population, the shard
// geometry, the enforced budget, and the on-disk snapshot size.
type Scale struct {
	Users          int   `json:"users"`
	ShardRecords   int   `json:"shard_records"`
	MaxRSSBudgetMB int   `json:"max_rss_budget_mb"`
	SnapshotBytes  int64 `json:"snapshot_bytes"`
}

// File is the BENCH_*.json schema.
type File struct {
	GeneratedAt string   `json:"generated_at"`
	GoVersion   string   `json:"go_version"`
	NumCPU      int      `json:"num_cpu"`
	Gomaxprocs  []int    `json:"gomaxprocs_runs"`
	Count       int      `json:"count,omitempty"`
	Pattern     string   `json:"pattern,omitempty"`
	Package     string   `json:"package,omitempty"`
	Scale       *Scale   `json:"scale,omitempty"`
	Benchmarks  []Result `json:"benchmarks"`
	Baseline    *File    `json:"baseline,omitempty"`
}

// benchLine matches one `go test -bench` result line: the name with
// its GOMAXPROCS suffix, the iteration count, then "value unit" pairs,
// e.g.
//
//	BenchmarkHeavytailFit/workers=1-8  12  95104250 ns/op  3.5 us/user  1024 B/op  17 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+(\d+)\s+(.*\bns/op\b.*)$`)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	var (
		out       = flag.String("out", "BENCH_analysis.json", "output JSON path")
		pattern   = flag.String("bench", tier2Pattern, "benchmark regexp passed to -bench")
		benchtime = flag.String("benchtime", "", "optional -benchtime (e.g. 3x, 2s)")
		count     = flag.Int("count", 1, "runs of each benchmark per pass; above 1 each row records the median with min and max ns/op")
		pkg       = flag.String("pkg", ".", "package containing the benchmarks")
		scale     = flag.Bool("scale", false, "run the out-of-core scale pipeline (generate -> fsck -> streaming Table 4) instead of a benchmark suite")
		users     = flag.Int("users", 5_000_000, "with -scale: population size")
		shardSize = flag.Int("shard-size", 250_000, "with -scale: records per shard segment")
		maxRSSMB  = flag.Int("max-rss-mb", 2048, "with -scale: per-stage RSS budget in MiB; any stage over budget fails the run (0 disables the gate)")
		workers   = flag.Int("workers", 0, "with -scale: worker pool size passed to each stage")
		baseline  = flag.String("baseline", "", "earlier benchjson file (e.g. the parent commit's run) to embed as the baseline")
	)
	flag.Parse()

	f := File{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		Pattern:     *pattern,
		Package:     *pkg,
	}
	if *count > 1 {
		f.Count = *count
	}
	if *scale {
		f.Pattern, f.Package, f.Count = "", "", 0
		runScale(&f, *out, *users, *shardSize, *maxRSSMB, *workers)
		return
	}
	procs := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		procs = append(procs, n)
	}
	f.Gomaxprocs = procs

	for _, gmp := range procs {
		args := []string{"test", "-run", "^$", "-bench", *pattern, *pkg}
		if *benchtime != "" {
			args = append(args, "-benchtime", *benchtime)
		}
		if *count > 1 {
			args = append(args, "-count", strconv.Itoa(*count))
		}
		cmd := exec.Command("go", args...)
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gmp))
		cmd.Stderr = os.Stderr
		raw, err := cmd.Output()
		if err != nil {
			log.Fatalf("go %v (GOMAXPROCS=%d): %v", args, gmp, err)
		}
		results := summarize(parse(raw, gmp))
		// One test-binary pass produced every line, so they share its
		// peak RSS.
		rss := maxRSSBytes(cmd.ProcessState)
		for i := range results {
			results[i].MaxRSSBytes = rss
		}
		f.Benchmarks = append(f.Benchmarks, results...)
	}
	if len(f.Benchmarks) == 0 {
		log.Fatalf("no benchmark lines matched pattern %q", *pattern)
	}
	if *baseline != "" {
		raw, err := os.ReadFile(*baseline)
		if err == nil {
			f.Baseline = &File{}
			err = json.Unmarshal(raw, f.Baseline)
		}
		if err != nil {
			log.Fatalf("baseline: %v", err)
		}
	}
	writeFile(&f, *out)
	fmt.Printf("benchjson: %d benchmarks -> %s\n", len(f.Benchmarks), *out)
	for _, r := range f.Benchmarks {
		alloc := ""
		if r.AllocsPerOp != nil {
			alloc = fmt.Sprintf("  %8d B/op %6d allocs/op", *r.BytesPerOp, *r.AllocsPerOp)
		}
		spread := ""
		if r.Runs > 1 {
			spread = fmt.Sprintf(" [%.0f..%.0f]", r.MinNsPerOp, r.MaxNsPerOp)
		}
		fmt.Printf("  %-55s P=%-3d %14.0f ns/op%s%s  rss=%dMB\n",
			r.Name, r.Gomaxprocs, r.NsPerOp, spread, alloc, r.MaxRSSBytes>>20)
	}
}

// writeFile marshals the measurement file to disk.
func writeFile(f *File, out string) {
	enc, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	enc = append(enc, '\n')
	if err := os.WriteFile(out, enc, 0o644); err != nil {
		log.Fatal(err)
	}
}

// parse extracts the measurements from one `go test -bench` run. The
// harness suffixes each name with the GOMAXPROCS it ran under; that
// suffix — not the value this process happens to see — is what gets
// recorded, with ranGomaxprocs only as the fallback for harnesses that
// omit the suffix at GOMAXPROCS=1.
func parse(raw []byte, ranGomaxprocs int) []Result {
	var out []Result
	for _, line := range bytes.Split(raw, []byte("\n")) {
		m := benchLine.FindSubmatch(line)
		if m == nil {
			continue
		}
		gmp := ranGomaxprocs
		if len(m[2]) > 0 {
			if v, err := strconv.Atoi(string(m[2])); err == nil {
				gmp = v
			}
		}
		iters, err := strconv.ParseInt(string(m[3]), 10, 64)
		if err != nil {
			continue
		}
		r := Result{Name: string(m[1]), Gomaxprocs: gmp, Iterations: iters}
		fields := strings.Fields(string(m[4]))
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			n := int64(v)
			switch unit := fields[i+1]; unit {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BytesPerOp = &n
			case "allocs/op":
				r.AllocsPerOp = &n
			case "MB/s":
			default:
				if r.Metrics == nil {
					r.Metrics = map[string]float64{}
				}
				r.Metrics[unit] = v
			}
		}
		if r.BytesPerOp == nil || r.AllocsPerOp == nil {
			r.BytesPerOp, r.AllocsPerOp = nil, nil // summarize reads them as a pair
		}
		out = append(out, r)
	}
	return out
}

// summarize folds the repeated runs of each benchmark (one pass, so one
// GOMAXPROCS) into one row, in first-run order: the median of every
// measured column, plus the min and max ns/op. A benchmark run once
// passes through unchanged.
func summarize(runs []Result) []Result {
	var order []string
	byName := map[string][]Result{}
	for _, r := range runs {
		if _, ok := byName[r.Name]; !ok {
			order = append(order, r.Name)
		}
		byName[r.Name] = append(byName[r.Name], r)
	}
	out := make([]Result, 0, len(order))
	for _, name := range order {
		rs := byName[name]
		if len(rs) == 1 {
			out = append(out, rs[0])
			continue
		}
		row := rs[0]
		row.Runs = len(rs)
		ns := sorted(rs, func(r Result) float64 { return r.NsPerOp })
		row.NsPerOp, row.MinNsPerOp, row.MaxNsPerOp = median(ns), ns[0], ns[len(ns)-1]
		row.Iterations = int64(median(sorted(rs, func(r Result) float64 { return float64(r.Iterations) })))
		allocs := true
		for _, r := range rs {
			allocs = allocs && r.AllocsPerOp != nil // parse sets B/op and allocs/op together
		}
		if allocs {
			bpo := int64(median(sorted(rs, func(r Result) float64 { return float64(*r.BytesPerOp) })))
			apo := int64(median(sorted(rs, func(r Result) float64 { return float64(*r.AllocsPerOp) })))
			row.BytesPerOp, row.AllocsPerOp = &bpo, &apo
		}
		if row.Metrics != nil {
			row.Metrics = map[string]float64{}
			for unit := range rs[0].Metrics {
				row.Metrics[unit] = median(sorted(rs, func(r Result) float64 { return r.Metrics[unit] }))
			}
		}
		out = append(out, row)
	}
	return out
}

// sorted returns one column of rs in ascending order.
func sorted(rs []Result, get func(Result) float64) []float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = get(r)
	}
	sort.Float64s(v)
	return v
}

// median of sorted, non-empty v: the middle value, or the mean of the
// two middle values.
func median(v []float64) float64 {
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}
