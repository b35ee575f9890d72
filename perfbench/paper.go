package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"steamstudy/internal/analysis"
	"steamstudy/internal/core"
	"steamstudy/internal/dataset"
	"steamstudy/internal/report"
	"steamstudy/internal/simworld"
)

// Workload sizes. Each is small enough that a 36 s window holds two to
// five pipelines, so a run's figure is a median and pipelines hit by
// hypervisor steal can be set aside. At 500,000 users a paper-stream
// pipeline filled the window alone, and its wall time moved by up to
// 57 % with the host's steal.
const (
	paperMemUsers    = 100_000
	paperStreamUsers = 150_000
	// catalogSize and t4Years are core's defaults, which the traced runs
	// need to replay core.New and core.StreamTable4 call by call.
	catalogSize = 6156
)

var t4Years = []int{2009, 2010, 2011, 2012, 2013}

// Pinned output digests for the default seed at the workload sizes.
// They change only when the program's output bytes change; update them
// together with the golden files when that is intended.
var paperPins = map[string]string{
	"paper-mem.run_all@100000":   "d1832aa6e26a0f676920b3bee4d800cf7cdb963f46fe0efa1daa812887295c35",
	"paper-stream.table4@150000": "97b51c3c16b4c0a0895131bc3f5c5b63893b0cf2c702b7196fbe49750e81b546",
}

// A batch workload's set-up is its pipeline at setupUsers, in fresh
// processes, batchSetupReps times; setup_s is their steady median. That
// is the size-independent cost every invocation pays before per-user
// work dominates: process start, package initialisation, the catalog,
// the experiment registry.
const (
	setupUsers     = 2000
	batchSetupReps = 7
)

// pipelineRun is one batch pipeline as measured: the pipeline's own wall
// time (inner), the wall time of its processes from start to the end of
// the pipeline (outer, which adds process start-up), and the peak RSS of
// its processes.
type pipelineRun struct {
	inner, outer, rssMiB float64
	users                int
}

// runBatch drives a batch workload: set-up, then either pipelines back
// to back for the window (untraced) or one untraced and one traced
// pipeline (traced), whose difference is the tracing overhead. Untraced
// figures are steady medians: pipelines during which the hypervisor
// stole more than maxSteal of the machine are set aside.
func (rc *runCtx) runBatch(pipeline func(users int, trace bool) (pipelineRun, error), users int) error {
	// timed runs one untraced pipeline and returns it, the steal share
	// while it ran and the wall time of the whole call.
	timed := func(users int) (pipelineRun, float64, float64, error) {
		c0, t0 := readCPUTicks(), time.Now()
		p, err := pipeline(users, false)
		return p, stealShare(c0, readCPUTicks()), time.Since(t0).Seconds(), err
	}
	var setups []sample
	for i := 0; i < batchSetupReps; i++ {
		p, steal, _, err := timed(setupUsers)
		if err != nil {
			return err
		}
		setups = append(setups, sample{p.outer, steal})
	}
	setup, _ := steadyMedian(setups)
	rc.set("setup_s", "s", setup)
	rc.detail["setup_s"] = setups

	if rc.trace {
		plain, err := pipeline(users, false)
		if err != nil {
			return err
		}
		traced, err := pipeline(users, true)
		if err != nil {
			return err
		}
		rc.set("trace.overhead_share", "1", traced.inner/plain.inner-1)
		rc.detail["pipeline_s"] = map[string]float64{"untraced": plain.inner, "traced": traced.inner}
		return nil
	}
	var runs []sample
	var rss []float64
	var n int
	var longest float64
	start := time.Now()
	for {
		p, steal, call, err := timed(users)
		if err != nil {
			return err
		}
		runs, rss, n = append(runs, sample{p.inner, steal}), append(rss, p.rssMiB), p.users
		longest = max(longest, call)
		// Start another pipeline only if it can finish inside the window.
		if time.Since(start).Seconds()+longest > rc.seconds {
			break
		}
	}
	wall, used := steadyMedian(runs)
	rc.set("users_per_s", "1/s", float64(n)/wall)
	// Every workload prints every end-to-end metric. A batch pipeline is
	// one request, so its capacity is users_per_s again and its median
	// latency is the pipeline's wall time.
	rc.set("capacity_per_s", "1/s", float64(n)/wall)
	rc.set("p50_ms", "ms", wall*1000)
	rc.set("peak_rss_mib", "MiB", maxOf(rss))
	rc.detail["pipelines"] = runs
	rc.detail["pipelines_used"] = used
	return nil
}

func runPaperMem(rc *runCtx) error {
	return rc.runBatch(func(users int, trace bool) (pipelineRun, error) {
		rc.attempted++
		res, started, mib, err := rc.execStage("paper-mem", "-users", fmt.Sprint(users),
			"-seed", fmt.Sprint(rc.seed), "-dir", rc.work, "-trace="+fmt.Sprint(trace))
		if err != nil {
			rc.failed++
			return pipelineRun{}, err
		}
		for name, ok := range res.Checks {
			rc.check(ok, "paper-mem: %s", name)
		}
		rc.checkDigest(fmt.Sprintf("paper-mem.run_all@%d", users), res.Digest["run_all"], paperPins)
		if trace {
			rc.tr.adopt(res.Spans, -1)
		}
		outer := time.Unix(0, res.EndNs).Sub(started).Seconds()
		return pipelineRun{inner: res.WallS, outer: outer, rssMiB: mib, users: res.Users}, nil
	}, paperMemUsers)
}

// runPaperStream runs `make scalebench`'s pipeline: each stage is its
// own process, so the pipeline as the parent times it is what a user of
// the three commands waits for, and each stage has its own peak RSS.
func runPaperStream(rc *runCtx) error {
	// The shard directory and its sidecar manifest live in their own
	// directory, removed after each pipeline.
	dir := filepath.Join(rc.work, "stream")
	snap := filepath.Join(dir, "stream.d")
	return rc.runBatch(func(users int, trace bool) (pipelineRun, error) {
		rc.attempted++
		tr := &tracer{on: trace, runID: rc.tr.runID}
		tf := fmt.Sprint(trace)
		stages := []struct {
			name string
			args []string
		}{
			{"stage-generate", []string{"-users", fmt.Sprint(users), "-seed", fmt.Sprint(rc.seed), "-snapshot", snap, "-trace=" + tf}},
			{"stage-fsck", []string{"-snapshot", snap, "-trace=" + tf}},
			{"stage-t4", []string{"-snapshot", snap, "-trace=" + tf}},
		}
		var p pipelineRun
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return p, err
		}
		start := time.Now()
		endP := tr.begin("pipeline")
		for _, st := range stages {
			name := strings.Replace(st.name, "-", ".", 1)
			endS := tr.begin(name)
			res, _, mib, err := rc.execStage(st.name, st.args...)
			endS()
			if err != nil {
				rc.failed++
				return p, err
			}
			tr.adopt(res.Spans, len(tr.spans)-1)
			for check, ok := range res.Checks {
				rc.check(ok, "paper-stream %s: %s", st.name, check)
			}
			if res.Users > 0 {
				p.users = res.Users
			}
			if d, ok := res.Digest["table4"]; ok {
				rc.checkDigest(fmt.Sprintf("paper-stream.table4@%d", users), d, paperPins)
			}
			if trace {
				rc.set(name+".peak_rss_mib", "MiB", mib)
			}
			p.rssMiB = max(p.rssMiB, mib)
		}
		endP()
		p.inner = time.Since(start).Seconds()
		p.outer = p.inner
		if err := os.RemoveAll(dir); err != nil {
			return p, err
		}
		if trace {
			rc.tr.adopt(tr.spans, -1)
		}
		return p, nil
	}, paperStreamUsers)
}

// runPaperChild is the process side of the batch workloads and of the
// query workloads' snapshot publisher.
func runPaperChild(mode string, args []string) error {
	fs := flag.NewFlagSet(mode, flag.ContinueOnError)
	users := fs.Int("users", 0, "population size")
	seed := fs.Int64("seed", 0, "generation seed")
	dir := fs.String("dir", "", "scratch directory")
	path := fs.String("snapshot", "", "snapshot path")
	sample := fs.String("sample", "", "comma-separated experiments to render (publish)")
	ids := fs.String("ids", "", "file to receive the user IDs (publish)")
	trace := fs.Bool("trace", false, "record spans")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tr := &tracer{on: *trace}
	res := stageResult{Digest: map[string]string{}, Checks: map[string]bool{}}
	var err error
	switch mode {
	case "paper-mem":
		err = paperMemPipeline(tr, &res, *users, *seed, *dir)
	case "stage-generate":
		err = streamGenerate(tr, &res, *users, *seed, *path)
	case "stage-fsck":
		var rep *dataset.Report
		err = tr.do("dataset.fsck_file", func() (err error) {
			rep, err = dataset.FsckFile(*path, nil)
			return err
		})
		if err == nil {
			res.Checks["fsck_file clean"] = rep.Clean()
		}
	case "stage-t4":
		err = streamT4(tr, &res, *path)
	case "publish":
		err = publish(tr, &res, *users, *seed, *path, *sample, *ids)
	}
	if err != nil {
		return err
	}
	res.Spans = tr.spans
	return json.NewEncoder(os.Stdout).Encode(res)
}

// paperMemPipeline is `steamstudy -users N` with the snapshot round trip
// in the middle: core.New → SaveSnapshot → dataset.Load → Fsck → RunAll.
// Each pipeline saves over the previous one's snapshot.
// Traced, it also attributes core.New by replaying its public call
// sequence and times each experiment's render serially; both happen
// outside the timed pipeline.
func paperMemPipeline(tr *tracer, res *stageResult, users int, seed int64, dir string) error {
	path := filepath.Join(dir, "paper-mem.jsonl.gz")
	var (
		study *core.Study
		snap  *dataset.Snapshot
		rep   *dataset.Report
		out   bytes.Buffer
	)
	start := time.Now()
	endP := tr.begin("pipeline")
	err := tr.do("core.new", func() (err error) {
		study, err = core.New(core.Options{Users: users, Seed: seed})
		return err
	})
	if err == nil {
		err = tr.do("dataset.save", func() error { return study.SaveSnapshot(path) })
	}
	if err == nil {
		err = tr.do("dataset.load", func() (err error) {
			snap, err = dataset.Load(path)
			return err
		})
	}
	if err == nil {
		err = tr.do("dataset.fsck", func() error { rep = snap.Fsck(); return nil })
	}
	if err == nil {
		err = tr.do("core.run_all", func() error { return study.RunAll(&out) })
	}
	endP()
	res.WallS = time.Since(start).Seconds()
	res.EndNs = time.Now().UnixNano()
	if err != nil {
		return err
	}
	res.Users = len(snap.Users)
	res.Digest["run_all"] = digest(out.Bytes())
	res.Checks["loaded content signature equals in-memory"] = snap.ContentSignature() == study.Snapshot().ContentSignature()
	res.Checks["fsck clean"] = rep.Clean()
	res.Checks["snapshot holds every user"] = len(snap.Users) == users
	if !tr.on {
		return nil
	}

	endR := tr.begin("core.render.serial")
	for _, id := range experimentIDs {
		if study.CanRun(id) {
			if err := tr.do("core.render."+id, func() error { return study.Run(io.Discard, id) }); err != nil {
				return err
			}
		}
	}
	endR()
	study, snap = nil, nil
	runtime.GC()
	debug.FreeOSMemory()

	// core.New, call by call.
	endN := tr.begin("core.new.replay")
	defer endN()
	cfg := simworld.DefaultConfig(users)
	cfg.CatalogSize = catalogSize
	var u, u2 *simworld.Universe
	var s1, s2 *dataset.Snapshot
	if err := tr.do("simworld.generate", func() (err error) { u, err = simworld.Generate(cfg, seed); return err }); err != nil {
		return err
	}
	_ = tr.do("dataset.from_universe", func() error { s1 = dataset.FromUniverse(u); return nil })
	_ = tr.do("analysis.extract", func() error { analysis.Extract(s1); return nil })
	_ = tr.do("simworld.evolve", func() error { u2 = simworld.Evolve(u); return nil })
	_ = tr.do("dataset.from_universe", func() error { s2 = dataset.FromUniverse(u2); return nil })
	_ = tr.do("analysis.extract", func() error { analysis.Extract(s2); return nil })
	return nil
}

// streamGenerate is the first paper-stream stage (`steamgen -stream`):
// generate the universe and stream it into a sharded snapshot directory.
func streamGenerate(tr *tracer, res *stageResult, users int, seed int64, path string) error {
	cfg := simworld.DefaultConfig(users)
	cfg.CatalogSize = catalogSize
	var u *simworld.Universe
	err := tr.do("simworld.generate", func() (err error) {
		u, err = simworld.Generate(cfg, seed)
		return err
	})
	if err != nil {
		return err
	}
	res.Users = len(u.Users)
	return tr.do("dataset.write_universe", func() error { return dataset.WriteUniverse(path, u) })
}

// streamT4 is the last paper-stream stage (`steamstudy -stream`). Traced,
// it replays core.StreamTable4 call by call; the rendered bytes must not
// change either way.
func streamT4(tr *tracer, res *stageResult, path string) error {
	var out bytes.Buffer
	if !tr.on {
		if err := core.StreamTable4(&out, path, "", nil, 0); err != nil {
			return err
		}
	} else {
		var inputs []analysis.Table4Input
		var rows []analysis.ClassificationRow
		err := tr.do("analysis.stream_t4_inputs", func() (err error) {
			inputs, err = analysis.StreamTable4Inputs(path, "", t4Years)
			return err
		})
		if err != nil {
			return err
		}
		_ = tr.do("analysis.t4_classify", func() error { rows = analysis.Table4Classification(inputs, 0); return nil })
		if err := tr.do("report.table4", func() error { return report.Table4(&out, rows) }); err != nil {
			return err
		}
	}
	res.Digest["table4"] = digest(out.Bytes())
	res.Checks["table4 classifies rows"] = bytes.Count(out.Bytes(), []byte("\n")) > 5 && !bytes.Contains(out.Bytes(), []byte("error:"))
	return nil
}

// publish generates and saves a query workload's snapshot the way
// `steamgen` does, renders a sample of experiments as the reference the
// server's bodies must equal, and writes the population's user IDs.
func publish(tr *tracer, res *stageResult, users int, seed int64, path, sample, idsPath string) error {
	var study *core.Study
	err := tr.do("core.new", func() (err error) {
		study, err = core.New(core.Options{Users: users, Seed: seed, SkipSecondSnapshot: true})
		return err
	})
	if err != nil {
		return err
	}
	if err := tr.do("dataset.save", func() error { return study.SaveSnapshot(path) }); err != nil {
		return err
	}
	for _, id := range strings.Split(sample, ",") {
		var buf bytes.Buffer
		if err := tr.do("core.render."+id, func() error { return study.Run(&buf, id) }); err != nil {
			return err
		}
		res.Digest["experiment/"+id] = digest(buf.Bytes())
	}
	man, err := dataset.ReadManifest(path)
	if err != nil || man == nil {
		return fmt.Errorf("publish: manifest of %s: %v", path, err)
	}
	res.Digest["etag"] = `"` + man.FileSHA256 + `"`
	snap := study.Snapshot()
	res.Users = len(snap.Users)
	recs := make([]userRef, len(snap.Users))
	for i := range snap.Users {
		recs[i] = userRef{ID: snap.Users[i].SteamID, HasFriends: len(snap.Users[i].Friends) > 0}
	}
	return writeUserRefs(idsPath, recs)
}

// userRef is one account the query mix may look up.
type userRef struct {
	ID         uint64
	HasFriends bool
}

func writeUserRefs(path string, recs []userRef) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var b [9]byte
	for _, r := range recs {
		binary.LittleEndian.PutUint64(b[:8], r.ID)
		b[8] = 0
		if r.HasFriends {
			b[8] = 1
		}
		w.Write(b[:])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readUserRefs reads a publisher's user list.
func readUserRefs(path string) ([]userRef, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(b)%9 != 0 {
		return nil, fmt.Errorf("%s: truncated user list", path)
	}
	recs := make([]userRef, len(b)/9)
	for i := range recs {
		recs[i] = userRef{ID: binary.LittleEndian.Uint64(b[9*i:]), HasFriends: b[9*i+8] == 1}
	}
	return recs, nil
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}
