// Command perfbench is the repository's benchmark: three workloads over the
// reproduction's pipeline and its /v1 query service, each checked for
// correct output, reporting end-to-end metrics (untraced) or a per-layer
// breakdown (traced). Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload paper-mem --seed 1 --seconds 36 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 36 --trace 0
//
// The last line of standard output is the result object; the line before
// it holds the run's detail (environment, per-stage figures, spans).
// README.md explains the workloads and what each layer metric predicts.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workloads maps each workload name to its driver. Every driver runs in
// a fresh process (the driver starts one per run), so peak RSS and GC
// state belong to that run alone.
var workloads = map[string]func(*runCtx) error{
	"paper-mem":    runPaperMem,
	"paper-stream": runPaperStream,
	"query-hot":    runQuery,
}

var workloadOrder = []string{"paper-mem", "paper-stream", "query-hot"}

// defaultSeed is the seed whose output digests are pinned in the source.
const defaultSeed = 1

// runCtx is one run of one workload.
type runCtx struct {
	root    string // checkout root
	work    string // scratch directory of this run, removed at exit
	bin     string // this executable, for stage and server processes
	build   string // digest of bin, naming this build's digest record
	seed    int64
	seconds float64
	trace   bool
	tr      *tracer

	attempted, failed int
	problems          []string
	metrics           map[string]metric
	detail            map[string]any
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (rc *runCtx) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		rc.check(false, "%s is not a finite number", name)
		v = 0
	}
	rc.metrics[name] = metric{Value: v, Unit: unit}
}

// check records a failed output check; the run then reports
// correct=false and exits non-zero.
func (rc *runCtx) check(ok bool, format string, args ...any) {
	if !ok {
		rc.problems = append(rc.problems, fmt.Sprintf(format, args...))
	}
}

func main() {
	if len(os.Args) > 2 && os.Args[1] == "-child" {
		if err := runChild(os.Args[2], os.Args[3:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	var (
		root     = flag.String("root", ".", "checkout root; scratch files go under <root>/.bench_build")
		workload = flag.String("workload", "", "workload name, or all: "+strings.Join(workloadOrder, ", "))
		seed     = flag.Int64("seed", defaultSeed, "workload seed; the program sees only the inputs generated from it")
		seconds  = flag.Float64("seconds", 36, "measurement window per run")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
	)
	flag.Parse()
	if *workload == "all" {
		os.Exit(runAll(*seed, *seconds, *trace))
	}
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s, or all), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadOrder, ", "))
		os.Exit(2)
	}
	os.Exit(runOne(*root, *workload, run, *seed, *seconds, *trace == 1))
}

func runOne(root, name string, run func(*runCtx) error, seed int64, seconds float64, trace bool) int {
	bin, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	base := filepath.Join(root, ".bench_build", "runs")
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(base, name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	exe, err := os.ReadFile(bin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rc := &runCtx{
		root: root, work: work, bin: bin, build: digest(exe)[:16], seed: seed, seconds: seconds, trace: trace,
		tr:      &tracer{on: trace, runID: fmt.Sprintf("%s/%d/%d", name, seed, time.Now().UnixNano())},
		metrics: make(map[string]metric),
		detail:  map[string]any{"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "env": envInfo()},
	}
	cpu0 := readCPUTicks()
	if err := run(rc); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	rc.detail["steal_share"] = stealShare(cpu0, readCPUTicks())
	if trace {
		rc.layerMetrics()
	}
	rc.detail["problems"] = rc.problems
	correct := len(rc.problems) == 0 && rc.failed == 0
	if !correct {
		// A failed check invalidates every figure of the run.
		rc.failed = max(rc.failed, 1)
	}
	detail, _ := json.Marshal(map[string]any{"detail": rc.detail})
	fmt.Println(string(detail))
	res, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, max(rc.attempted, 1), rc.failed, rc.metrics})
	fmt.Println(string(res))
	for _, p := range rc.problems {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", p)
	}
	if !correct {
		return 1
	}
	return 0
}

// runAll runs every workload, each in its own process, and prints each
// result line prefixed by its workload name. It fails if any run does.
func runAll(seed int64, seconds float64, trace int) int {
	bin, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	status := 0
	for _, name := range workloadOrder {
		var out bytes.Buffer
		cmd := exec.Command(bin, append(os.Args[1:len(os.Args):len(os.Args)], "-workload", name)...)
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		if err := cmd.Run(); err != nil {
			status = 1
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		fmt.Printf("%s %s\n", name, lines[len(lines)-1])
	}
	return status
}

// envInfo records what the run's numbers depend on beyond the code.
func envInfo() map[string]any {
	v, _ := exec.Command("go", "version").Output()
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_runtime": runtime.Version(),
		"go_tool":    strings.TrimSpace(string(v)),
		"scrubbed":   os.Getenv("PERFBENCH_SCRUBBED"),
	}
}

// readCPUTicks returns the machine-wide CPU time counters of
// /proc/stat (user, nice, system, idle, iowait, irq, softirq, steal,
// ...), or nil where they are unavailable.
func readCPUTicks() []float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 2 || fields[0] != "cpu" {
		return nil
	}
	var out []float64
	for _, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// stealShare is the share of the machine's CPU time between two
// readCPUTicks readings that the hypervisor gave to other guests: the
// main source of drift between runs on a shared virtual machine. It is 0
// where the counters are unavailable.
func stealShare(a, b []float64) float64 {
	if len(a) < 8 || len(b) < 8 {
		return 0
	}
	var total float64
	for i := range b {
		total += b[i] - a[i]
	}
	if total <= 0 {
		return 0
	}
	return (b[7] - a[7]) / total
}

// maxSteal is the steal share above which a timed sample is set aside.
// Batch runs that lost 3-18 % of the machine to the hypervisor ran
// 17-57 % slower than runs of the same code that lost under 0.5 %.
const maxSteal = 0.02

// sample is one timed measurement and the steal share while it ran.
type sample struct {
	V     float64 `json:"v"`
	Steal float64 `json:"steal"`
}

// steady returns the indexes of the samples taken while the hypervisor
// stole at most maxSteal of the CPU time or, when none was, of the one
// sample it stole least from. Periods of heavy steal last minutes, so in
// a run without a quiet sample the least disturbed one is the best
// estimate of the program's own speed.
func steady(xs []sample) []int {
	var quiet []int
	least := 0
	for i, x := range xs {
		if x.Steal <= maxSteal {
			quiet = append(quiet, i)
		}
		if x.Steal < xs[least].Steal {
			least = i
		}
	}
	if len(quiet) == 0 && len(xs) > 0 {
		quiet = []int{least}
	}
	return quiet
}

// steadyMedian is the median of the steady samples, and their number.
func steadyMedian(xs []sample) (float64, int) {
	var vs []float64
	for _, i := range steady(xs) {
		vs = append(vs, xs[i].V)
	}
	return median(vs), len(vs)
}

// stageResult is what a stage or pipeline process reports on its last
// stdout line.
type stageResult struct {
	Users int     `json:"users"`
	WallS float64 `json:"wall_s"`
	// EndNs is the wall clock (Unix ns) when the pipeline ended, before
	// the output checks, so the parent can time the process up to there.
	EndNs  int64             `json:"end_ns"`
	Digest map[string]string `json:"digest"`
	Checks map[string]bool   `json:"checks"`
	Spans  []span            `json:"spans,omitempty"`
}

// execStage runs this binary in child mode and decodes its result. It
// returns when the process was started and its peak RSS.
func (rc *runCtx) execStage(mode string, args ...string) (res stageResult, start time.Time, rssMiB float64, err error) {
	var out bytes.Buffer
	cmd := exec.Command(rc.bin, append([]string{"-child", mode}, args...)...)
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	start = time.Now()
	if err = cmd.Run(); err != nil {
		return res, start, 0, fmt.Errorf("%s: %w", mode, err)
	}
	rssMiB = peakRSSMiB(cmd.ProcessState)
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	if err = json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, start, rssMiB, fmt.Errorf("%s: decoding result: %w", mode, err)
	}
	return res, start, rssMiB, nil
}

// peakRSSMiB is a finished child's peak resident set (Linux reports
// Maxrss in KiB).
func peakRSSMiB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// checkDigest compares a run's output digest against the pin for the
// default seed, and for every seed against the digest the first run of
// that seed recorded for this build, so a second seed is held to
// run-to-run identity. The record is keyed by the benchmark binary,
// which embeds the program, so a rebuilt program starts a new record.
func (rc *runCtx) checkDigest(key, got string, pins map[string]string) {
	if rc.seed == defaultSeed {
		if want, ok := pins[key]; ok {
			rc.check(got == want, "%s digest for seed %d = %s, pinned %s", key, rc.seed, got, want)
		}
	}
	ledger := filepath.Join(rc.root, ".bench_build", "digests", rc.build, fmt.Sprintf("%s-%d", key, rc.seed))
	if prev, err := os.ReadFile(ledger); err == nil {
		rc.check(string(prev) == got, "%s digest for seed %d = %s, an earlier run gave %s", key, rc.seed, got, prev)
		return
	}
	if err := os.MkdirAll(filepath.Dir(ledger), 0o755); err == nil {
		_ = os.WriteFile(ledger, []byte(got), 0o644) // first run of this seed; best effort
	}
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank quantile of xs (q in [0,1]).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func maxOf(xs []float64) float64 { return quantile(xs, 1) }

func runChild(mode string, args []string) error {
	switch mode {
	case "paper-mem", "stage-generate", "stage-fsck", "stage-t4", "publish":
		return runPaperChild(mode, args)
	case "serve":
		return runServer(args)
	}
	return errors.New("unknown child mode " + mode)
}
