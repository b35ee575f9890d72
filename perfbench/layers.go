package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"steamstudy/internal/query"
)

// layerSpans are the calls whose cost a traced run attributes, each
// reported as wall_s, cpu_s, alloc_mib, mallocs and gc_cycles summed over
// the run. README.md maps each to the end-to-end metric it moves.
var layerSpans = []string{
	"core.new", "simworld.generate", "dataset.from_universe", "analysis.extract", "simworld.evolve",
	"dataset.save", "dataset.load", "dataset.fsck", "core.run_all",
	"dataset.write_universe", "dataset.fsck_file", "analysis.stream_t4_inputs", "analysis.t4_classify",
	"query.open", "query.reload",
}

// experimentIDs are the registry's experiments, each timed alone by the
// traced paper-mem run as core.render.<ID>.
var experimentIDs = []string{
	"E10", "E2", "E3", "E4", "E8", "E9", "E9F",
	"F1", "F10", "F11", "F12", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9",
	"T1", "T2", "T3", "T4",
}

type metricDef struct{ Name, Unit string }

// layerMetricList is every per-layer metric a traced run prints, in
// order. A layer a workload never calls reads 0 there.
func layerMetricList() []metricDef {
	var out []metricDef
	for _, s := range layerSpans {
		out = append(out,
			metricDef{s + ".wall_s", "s"}, metricDef{s + ".cpu_s", "s"}, metricDef{s + ".alloc_mib", "MiB"},
			metricDef{s + ".mallocs", "count"}, metricDef{s + ".gc_cycles", "count"})
	}
	out = append(out, metricDef{"report.table4.wall_s", "s"})
	for _, id := range experimentIDs {
		out = append(out, metricDef{"core.render." + id + ".wall_s", "s"})
	}
	out = append(out, metricDef{"pipeline.self_s", "s"})
	for _, st := range []string{"stage.generate", "stage.fsck", "stage.t4"} {
		out = append(out, metricDef{st + ".self_s", "s"}, metricDef{st + ".peak_rss_mib", "MiB"})
	}
	return append(out,
		metricDef{"query.reload.median_s", "s"}, metricDef{"query.reload.max_s", "s"},
		metricDef{"query.serve.p50_ms", "ms"}, metricDef{"query.serve.p99_ms", "ms"},
		metricDef{"net.client.p50_ms", "ms"}, metricDef{"net.client.p99_ms", "ms"},
		metricDef{"query.cache.hit_ratio", "1"}, metricDef{"query.not_modified", "count"},
		metricDef{"query.shed", "count"}, metricDef{"query.deadline", "count"},
		metricDef{"query.warmed", "count"}, metricDef{"loadgen.lag_p99_ms", "ms"},
		metricDef{"open_loop.p99_ms", "ms"},
		metricDef{"trace.overhead_share", "1"},
	)
}

// layerMetrics replaces the run's metrics with the per-layer list,
// computed from the recorded spans plus what the workload set directly.
func (rc *runCtx) layerMetrics() {
	totals := layerTotals(rc.tr.spans)
	derived := map[string]float64{}
	for name, lt := range totals {
		derived[name+".wall_s"] = lt.Wall
		derived[name+".self_s"] = lt.Self
		derived[name+".cpu_s"] = lt.CPU
		derived[name+".alloc_mib"] = lt.AllocMi
		derived[name+".mallocs"] = float64(lt.Mallocs)
		derived[name+".gc_cycles"] = float64(lt.GC)
	}
	var reloads []float64
	for i := range rc.tr.spans {
		if rc.tr.spans[i].Name == "query.reload" {
			reloads = append(reloads, rc.tr.spans[i].wall())
		}
	}
	if len(reloads) > 0 {
		derived["query.reload.median_s"] = median(reloads)
		derived["query.reload.max_s"] = maxOf(reloads)
	}
	out := make(map[string]metric)
	for _, d := range layerMetricList() {
		v, ok := rc.metrics[d.Name]
		if !ok {
			v = metric{Value: derived[d.Name], Unit: d.Unit}
		}
		out[d.Name] = v
	}
	rc.metrics = out
	rc.detail["layers"] = totals
	rc.detail["spans"] = len(rc.tr.spans)
	// The spans themselves are written once, at the end of the run.
	path := filepath.Join(rc.root, ".bench_build", "spans", filepath.Base(rc.work)+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
		if b, err := json.Marshal(rc.tr.spans); err == nil && os.WriteFile(path, b, 0o644) == nil {
			rc.detail["spans_file"] = path
		}
	}
}

// queryLayerMetrics sets the query workloads' per-layer figures: the
// server's own serve time per request, the client's latency beyond it,
// cache counters over the timed window, and the generator's lag.
func (rc *runCtx) queryLayerMetrics(lg *loadgen, final serverFinal, before, after query.StatsInfo, lag []float64) {
	rc.tr.adopt(final.Spans, -1)
	serve := make([]float64, len(final.ServeNs))
	var net []float64
	for i, ns := range final.ServeNs {
		serve[i] = float64(ns) / 1e6
		if c, ok := lg.clientNs[final.ServeID[i]]; ok {
			net = append(net, float64(c-ns)/1e6)
		}
	}
	rc.set("query.serve.p50_ms", "ms", quantile(serve, 0.5))
	rc.set("query.serve.p99_ms", "ms", quantile(serve, 0.99))
	rc.set("net.client.p50_ms", "ms", quantile(net, 0.5))
	rc.set("net.client.p99_ms", "ms", quantile(net, 0.99))
	for name, v := range statsDelta(before, after) {
		unit := "count"
		if name == "query.cache.hit_ratio" {
			unit = "1"
		}
		rc.set(name, unit, v)
	}
	rc.set("loadgen.lag_p99_ms", "ms", quantile(lag, 0.99))
	rc.detail["serve_samples"] = len(serve)
	rc.detail["net_samples"] = len(net)
}

// mix is the weighted URL population of query-hot, the shape of `make
// querybench`: hot metadata, tables and boards dominate, and lookups of
// a fixed sample of accounts form the tail.
type mix struct {
	urls  []string
	cum   []int
	total int
}

func (m *mix) add(weight int, u string) {
	m.urls = append(m.urls, u)
	m.total += weight
	m.cum = append(m.cum, m.total)
}

func (m *mix) pick(rng *rand.Rand) string {
	return m.urls[sort.SearchInts(m.cum, rng.Intn(m.total)+1)]
}

// buildMix assembles the mix from the live server's experiment and genre
// indexes and the published user list.
func (lg *loadgen) buildMix(seed int64, users []userRef) error {
	exps, err := lg.api.Experiments()
	if err != nil {
		return err
	}
	genres, err := lg.api.Genres()
	if err != nil {
		return err
	}
	m := &mix{}
	m.add(120, "/v1/snapshot")
	m.add(40, "/v1/experiments")
	for _, e := range exps {
		if e.Available {
			m.add(25, "/v1/experiments/"+e.ID)
		}
	}
	for _, attr := range []string{"friends", "games", "played", "groups", "total_hours", "twoweek_hours", "value_usd"} {
		m.add(8, "/v1/percentiles/"+attr)
		m.add(5, "/v1/percentiles/"+attr+"?p=50,90,99")
		m.add(3, "/v1/percentiles/"+attr+"?nonzero=true")
		m.add(2, "/v1/percentiles/"+attr+"?p=25,50,75&nonzero=true")
	}
	m.add(60, "/v1/genres")
	for _, g := range genres {
		m.add(10, "/v1/genres/"+g.Genre)
	}
	for _, by := range []string{"owners", "players", "playtime", "value"} {
		for _, n := range []int{5, 10, 25, 100} {
			m.add(6, fmt.Sprintf("/v1/games/top?by=%s&n=%d", by, n))
		}
	}
	for _, n := range []int{10, 25, 100} {
		m.add(8, fmt.Sprintf("/v1/groups/top?n=%d", n))
	}
	rng := rand.New(rand.NewSource(seed))
	for _, i := range rng.Perm(len(users))[:min(hotUserURLs, len(users))] {
		m.add(1, fmt.Sprintf("/v1/users/%d", users[i].ID))
		if users[i].HasFriends {
			m.add(1, fmt.Sprintf("/v1/users/%d/friends", users[i].ID))
		}
	}
	lg.mix = m
	return nil
}
