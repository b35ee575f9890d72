// Command steamqueryload drives a steamquery server with a seeded,
// weighted request mix and reports latency percentiles, throughput and
// the server's cache hit rate as BENCH_query.json.
//
// By default it is self-contained: it loads -snapshot, starts an
// in-process steamquery server on a loopback port, and hammers it over
// real HTTP. Point -url at an external server (serving the same
// snapshot file, which is still read locally to seed user lookups) to
// load-test across processes.
//
//	steamqueryload -snapshot steam.jsonl.gz -requests 1000000 -out BENCH_query.json
//
// The mix is deterministic for a given -seed: a few hundred distinct
// URLs spanning every /v1 endpoint, weighted so that hot resources
// (snapshot metadata, tables, genre slices, top-K boards) dominate,
// with a configurable fraction of conditional requests replaying the
// snapshot's ETag.
//
// Responses are classified, not just counted: 200s and 304s are the
// happy path, 503s are load shedding (the admission layer's explicit
// backpressure), other 5xx are server errors, and transport failures
// split into timeouts and everything else. -slo points at a threshold
// file (BENCH_query_slo.json) and the run exits non-zero when per-route
// p99, shed rate or error rate regress past it.
//
// -chaos turns the run into an overload proof (make querychaos): slow
// readers, mid-body aborts, request bursts, a SIGHUP reload storm and a
// corrupt-snapshot reload all run against the live server while the
// main mix measures the collateral damage; the run fails unless the
// server sheds instead of erroring, keeps its ETag through the corrupt
// reload, and cuts every slow client. See DESIGN.md §15.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"steamstudy/internal/climain"
	"steamstudy/internal/dataset"
	"steamstudy/internal/query"
	"steamstudy/internal/ratelimit"
	"steamstudy/internal/stats"
)

func main() {
	app := climain.New("steamqueryload")
	workers := app.WorkersFlag(0, "concurrent request workers (0 = one per CPU); the URL sequence each worker draws is seeded, so results are reproducible for a fixed -workers")
	var (
		snapshot    = flag.String("snapshot", "", "snapshot file: served in-process (default) and sampled for user-lookup targets")
		url         = flag.String("url", "", "load an external steamquery server at this base URL instead of self-serving")
		requests    = flag.Int("requests", 1_000_000, "total requests to issue")
		rate        = flag.Float64("rate", 0, "request budget in requests/second shared across workers (0 = unlimited), via the crawler's token-bucket limiter")
		seed        = flag.Int64("seed", 1, "seed for the URL mix")
		conditional = flag.Float64("conditional", 0.2, "fraction of requests sent with If-None-Match (expect 304s)")
		userURLs    = flag.Int("user-urls", 200, "distinct /v1/users/{id} targets sampled from the snapshot")
		cacheN      = flag.Int("cache", 0, "self-served server's result cache capacity (0 = default)")
		out         = flag.String("out", "", "write the JSON report here (empty = stdout)")
		reqTimeout  = flag.Duration("req-timeout", 10*time.Second, "per-request client timeout; expirations are classified as timeouts")
		sloPath     = flag.String("slo", "", "SLO threshold file (BENCH_query_slo.json); exit non-zero when the run regresses past it")
		chaos       = flag.Bool("chaos", false, "run the overload chaos harness alongside the load (self-serve only)")

		maxInflight = flag.Int("max-inflight", 0, "self-served server: admission-control in-flight cap (0 = server default)")
		queueWait   = flag.Duration("queue-wait", 0, "self-served server: admission queue deadline (0 = server default)")
		routeTO     = flag.Duration("route-timeout", 0, "self-served server: per-route deadline budget (0 = server default)")
		warmKeys    = flag.Int("warm-keys", 0, "self-served server: hottest keys warmed on reload (0 = server default)")
	)
	flag.Parse()
	app.MustSnapshotPath("snapshot", *snapshot)
	app.StartAdmin()
	if *workers <= 0 {
		*workers = runtime.NumCPU()
	}
	if *chaos && *url != "" {
		log.Fatal("-chaos needs the self-served server (reload storms and snapshot corruption act on the serving process); drop -url")
	}

	// The snapshot is read once, locally, for two jobs: seeding the
	// user-lookup URLs, and (without -url) serving itself.
	snap, err := dataset.Load(*snapshot)
	if err != nil {
		log.Fatal(err)
	}

	// Chaos serves from a scratch copy so the corrupt-reload actor can
	// truncate and restore the file without touching the input.
	servePath := *snapshot
	var ch *chaosHarness
	if *chaos {
		ch, err = newChaosHarness(*snapshot)
		if err != nil {
			log.Fatal(err)
		}
		servePath = ch.servePath
	}

	base := *url
	var srv *query.Server
	if base == "" {
		srv, err = query.Open(query.Config{
			SnapshotPath: servePath,
			CacheEntries: *cacheN,
			MaxInflight:  *maxInflight,
			QueueWait:    *queueWait,
			RouteTimeout: *routeTO,
			WarmKeys:     *warmKeys,
		})
		if err != nil {
			log.Fatal(err)
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		hs := climain.NewHTTPServer(srv)
		if *chaos {
			// Short deadlines so the slow-client cuts land within the
			// run, not after a minute.
			hs.ReadHeaderTimeout = chaosWriteTimeout
			hs.WriteTimeout = chaosWriteTimeout
			hs.IdleTimeout = chaosWriteTimeout
		}
		go hs.Serve(lis)
		defer hs.Shutdown(context.Background())
		base = "http://" + lis.Addr().String()
		fmt.Fprintf(os.Stderr, "steamqueryload: self-serving %s at %s\n", servePath, base)
	}

	client := &query.Client{BaseURL: base, Timeout: *reqTimeout, HTTPClient: &http.Client{
		Timeout: *reqTimeout,
		Transport: &http.Transport{
			MaxIdleConns:        *workers * 2,
			MaxIdleConnsPerHost: *workers * 2,
		},
	}}
	urls, etag, err := buildMix(client, snap, *seed, *userURLs)
	if err != nil {
		log.Fatal(err)
	}
	before, err := client.Stats()
	if err != nil {
		log.Fatal(err)
	}

	var limiter *ratelimit.Limiter
	if *rate > 0 {
		limiter = ratelimit.New(*rate, *workers)
	}
	fmt.Fprintf(os.Stderr, "steamqueryload: %d requests over %d distinct URLs, %d workers, seed %d%s\n",
		*requests, urls.distinct(), *workers, *seed, map[bool]string{true: ", CHAOS MODE", false: ""}[*chaos])

	if ch != nil {
		ch.start(srv, base, client, urls)
	}
	res := run(client.HTTPClient, base, urls, etag, *requests, *workers, *seed, *conditional, limiter)
	var chaosRes *chaosReport
	if ch != nil {
		chaosRes = ch.stop()
	}

	after, err := client.Stats()
	if err != nil {
		log.Fatal(err)
	}
	rep := buildReport(*snapshot, snap, urls, before, after, res, *requests, *workers, *rate, *seed, *conditional,
		*maxInflight, *queueWait, *routeTO)
	if chaosRes != nil {
		chaosRes.fillFromRun(rep, before, after)
	}
	writeReport(*out, rep, chaosRes)

	violations := checkSLO(*sloPath, rep, chaosRes)
	if chaosRes != nil {
		violations = append(violations, chaosRes.invariantViolations()...)
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "steamqueryload: SLO VIOLATION: %s\n", v)
		}
		os.Exit(1)
	}
	if *sloPath != "" || chaosRes != nil {
		fmt.Fprintln(os.Stderr, "steamqueryload: all SLO checks passed")
	}
}

// mix is the weighted URL population: list[i] repeated weight[i] times,
// flattened into a cumulative table for O(log n) seeded draws. family
// labels each URL with its endpoint class for per-route latency SLOs.
type mix struct {
	list   []string
	family []string
	cum    []int // cumulative weights
	total  int
	counts map[string]int // endpoint family -> distinct URLs
}

func (m *mix) add(family string, weight int, u string) {
	m.list = append(m.list, u)
	m.family = append(m.family, family)
	m.total += weight
	m.cum = append(m.cum, m.total)
	if m.counts == nil {
		m.counts = make(map[string]int)
	}
	m.counts[family]++
}

func (m *mix) distinct() int { return len(m.list) }

// pick draws one URL (and its family) with the mix's weights from the
// caller's rng.
func (m *mix) pick(rng *rand.Rand) (string, string) {
	n := rng.Intn(m.total)
	i := sort.SearchInts(m.cum, n+1)
	return m.list[i], m.family[i]
}

// buildMix assembles the request population from the live server (genre
// names, runnable experiment IDs, the current ETag) and the local
// snapshot (user IDs). The shape mirrors a read-heavy dashboard: hot
// metadata and boards dominate, per-user lookups form the long tail.
func buildMix(c *query.Client, snap *dataset.Snapshot, seed int64, userURLs int) (*mix, string, error) {
	info, err := c.Snapshot()
	if err != nil {
		return nil, "", fmt.Errorf("snapshot info: %w", err)
	}
	exps, err := c.Experiments()
	if err != nil {
		return nil, "", fmt.Errorf("experiment index: %w", err)
	}
	genres, err := c.Genres()
	if err != nil {
		return nil, "", fmt.Errorf("genre index: %w", err)
	}

	m := &mix{}
	m.add("snapshot", 120, "/v1/snapshot")
	m.add("experiments", 40, "/v1/experiments")
	for _, e := range exps {
		if e.Available {
			m.add("experiment", 25, "/v1/experiments/"+e.ID)
		}
	}
	for _, attr := range []string{"friends", "games", "played", "groups", "total_hours", "twoweek_hours", "value_usd"} {
		m.add("percentiles", 8, "/v1/percentiles/"+attr)
		m.add("percentiles", 5, "/v1/percentiles/"+attr+"?p=50,90,99")
		m.add("percentiles", 3, "/v1/percentiles/"+attr+"?nonzero=true")
		m.add("percentiles", 2, "/v1/percentiles/"+attr+"?p=25,50,75&nonzero=true")
	}
	m.add("genres", 60, "/v1/genres")
	for _, g := range genres {
		m.add("genre", 10, "/v1/genres/"+g.Genre)
	}
	for _, by := range []string{"owners", "players", "playtime", "value"} {
		for _, n := range []int{5, 10, 25, 100} {
			m.add("games_top", 6, fmt.Sprintf("/v1/games/top?by=%s&n=%d", by, n))
		}
	}
	for _, n := range []int{10, 25, 100} {
		m.add("groups_top", 8, fmt.Sprintf("/v1/groups/top?n=%d", n))
	}
	// User lookups: a seeded sample of real SteamIDs, weight 1 each —
	// the cold tail that exercises cache fills and eviction.
	rng := rand.New(rand.NewSource(seed))
	if userURLs > len(snap.Users) {
		userURLs = len(snap.Users)
	}
	for _, i := range rng.Perm(len(snap.Users))[:userURLs] {
		id := snap.Users[i].SteamID
		m.add("user", 1, fmt.Sprintf("/v1/users/%d", id))
		if len(snap.Users[i].Friends) > 0 {
			m.add("friends", 1, fmt.Sprintf("/v1/users/%d/friends", id))
		}
	}
	return m, info.ETag, nil
}

// Outcome classes. Shed (503) is the server working as designed under
// overload; error5xx is it failing; the two must never be lumped
// together or a collapsing server looks like a shedding one.
const (
	outOK        = "ok"
	out304       = "not_modified"
	outShed      = "shed"
	outError5xx  = "error_5xx"
	outClientErr = "client_error"
	outTimeout   = "timeout"
	outTransport = "transport_error"
)

// classify maps one request's fate to its outcome class.
func classify(status int, err error) string {
	switch {
	case err != nil:
		if ne, ok := err.(interface{ Timeout() bool }); ok && ne.Timeout() {
			return outTimeout
		}
		// url.Error wraps the net error; unwrap one level for Timeout.
		type unwrapper interface{ Unwrap() error }
		if ue, ok := err.(unwrapper); ok {
			if ne, ok := ue.Unwrap().(interface{ Timeout() bool }); ok && ne.Timeout() {
				return outTimeout
			}
		}
		return outTransport
	case status == http.StatusOK:
		return outOK
	case status == http.StatusNotModified:
		return out304
	case status == http.StatusServiceUnavailable:
		return outShed
	case status >= 500:
		return outError5xx
	default:
		return outClientErr
	}
}

// result accumulates one run's measurements.
type result struct {
	latencies []float64 // seconds, one per completed (200/304) request
	outcomes  map[string]int
	status    map[int]int
	perRoute  map[string][]float64 // family -> 200/304 latencies
	elapsed   time.Duration
}

// run fires total requests from workers goroutines, each drawing from
// its own seeded rng so the sequence is reproducible, and collects
// per-request wall latency, classified per outcome and per route.
// Latency percentiles are computed over served (200/304) requests only:
// shed responses return in microseconds and would flatter the numbers.
func run(hc *http.Client, base string, urls *mix, etag string, total, workers int, seed int64, conditional float64, limiter *ratelimit.Limiter) result {
	type workerOut struct {
		lat      []float64
		outcomes map[string]int
		status   map[int]int
		perRoute map[string][]float64
	}
	outs := make([]workerOut, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		n := total / workers
		if w < total%workers {
			n++
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)*7919))
			o := workerOut{
				lat:      make([]float64, 0, n),
				outcomes: make(map[string]int),
				status:   make(map[int]int),
				perRoute: make(map[string][]float64),
			}
			for i := 0; i < n; i++ {
				if limiter != nil {
					limiter.Wait(context.Background())
				}
				u, family := urls.pick(rng)
				req, err := http.NewRequest("GET", base+u, nil)
				if err != nil {
					o.outcomes[outTransport]++
					continue
				}
				if etag != "" && rng.Float64() < conditional {
					req.Header.Set("If-None-Match", etag)
				}
				t0 := time.Now()
				resp, err := hc.Do(req)
				if err != nil {
					o.outcomes[classify(0, err)]++
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				lat := time.Since(t0).Seconds()
				o.status[resp.StatusCode]++
				cls := classify(resp.StatusCode, nil)
				o.outcomes[cls]++
				if cls == outOK || cls == out304 {
					o.lat = append(o.lat, lat)
					o.perRoute[family] = append(o.perRoute[family], lat)
				}
			}
			outs[w] = o
		}(w, n)
	}
	wg.Wait()
	res := result{
		outcomes: make(map[string]int),
		status:   make(map[int]int),
		perRoute: make(map[string][]float64),
		elapsed:  time.Since(start),
	}
	for _, o := range outs {
		res.latencies = append(res.latencies, o.lat...)
		for k, v := range o.status {
			res.status[k] += v
		}
		for k, v := range o.outcomes {
			res.outcomes[k] += v
		}
		for k, v := range o.perRoute {
			res.perRoute[k] = append(res.perRoute[k], v...)
		}
	}
	return res
}

// latencySummary is p50/p99 over one latency population, in ms.
type latencySummary struct {
	Count int     `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90,omitempty"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max,omitempty"`
}

func summarize(lat []float64) latencySummary {
	s := latencySummary{Count: len(lat)}
	if len(lat) == 0 {
		return s
	}
	ps := stats.Percentiles(lat, 50, 90, 99)
	s.P50, s.P90, s.P99 = ps[0]*1000, ps[1]*1000, ps[2]*1000
	for _, l := range lat {
		if ms := l * 1000; ms > s.Max {
			s.Max = ms
		}
	}
	return s
}

// classification is the outcome breakdown the SLO checks consume.
type classification struct {
	OK              int `json:"ok"`
	NotModified     int `json:"not_modified"`
	Shed            int `json:"shed"`
	Errors5xx       int `json:"errors_5xx"`
	ClientErrors    int `json:"client_errors"`
	Timeouts        int `json:"timeouts"`
	TransportErrors int `json:"transport_errors"`
}

func classificationOf(outcomes map[string]int) classification {
	return classification{
		OK:              outcomes[outOK],
		NotModified:     outcomes[out304],
		Shed:            outcomes[outShed],
		Errors5xx:       outcomes[outError5xx],
		ClientErrors:    outcomes[outClientErr],
		Timeouts:        outcomes[outTimeout],
		TransportErrors: outcomes[outTransport],
	}
}

func (c classification) total() int {
	return c.OK + c.NotModified + c.Shed + c.Errors5xx + c.ClientErrors + c.Timeouts + c.TransportErrors
}

// shedRate and errorRate are fractions of all issued requests. Sheds
// are intended behavior with their own budget; errors lump true 5xx,
// timeouts and transport failures — the things a healthy server never
// produces.
func (c classification) shedRate() float64 {
	if t := c.total(); t > 0 {
		return float64(c.Shed) / float64(t)
	}
	return 0
}

func (c classification) errorRate() float64 {
	if t := c.total(); t > 0 {
		return float64(c.Errors5xx+c.Timeouts+c.TransportErrors) / float64(t)
	}
	return 0
}

// benchReport is the BENCH_query.json schema; the header fields match
// the repo's other BENCH_*.json files. A chaos run preserves an
// existing file's bench numbers and replaces only the chaos section
// (and vice versa), so `make querybench` and `make querychaos` share
// the one file without clobbering each other.
type benchReport struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	NumCPU      int    `json:"num_cpu"`

	Snapshot     string  `json:"snapshot"`
	Users        int     `json:"users"`
	Games        int     `json:"games"`
	Groups       int     `json:"groups"`
	Requests     int     `json:"requests"`
	Workers      int     `json:"workers"`
	RateLimit    float64 `json:"rate_limit_rps"`
	Seed         int64   `json:"seed"`
	Conditional  float64 `json:"conditional_fraction"`
	DistinctURLs int     `json:"distinct_urls"`

	MaxInflight  int    `json:"max_inflight"`
	QueueWait    string `json:"queue_wait"`
	RouteTimeout string `json:"route_timeout"`

	DurationSeconds float64 `json:"duration_seconds"`
	ThroughputRPS   float64 `json:"throughput_rps"`
	LatencyMs       struct {
		P50 float64 `json:"p50"`
		P90 float64 `json:"p90"`
		P99 float64 `json:"p99"`
		Max float64 `json:"max"`
	} `json:"latency_ms"`
	Routes         map[string]latencySummary `json:"routes_latency_ms"`
	Classification classification            `json:"classification"`
	ShedRate       float64                   `json:"shed_rate"`
	ErrorRate      float64                   `json:"error_rate"`
	Status         map[string]int            `json:"status"`
	Cache          struct {
		Hits        int64   `json:"hits"`
		Misses      int64   `json:"misses"`
		HitRate     float64 `json:"hit_rate"`
		NotModified int64   `json:"not_modified"`
		Entries     int     `json:"entries"`
	} `json:"cache"`
	ServerShed     int64  `json:"server_shed"`
	ServerDeadline int64  `json:"server_deadline_exceeded"`
	ServerETag     string `json:"server_etag"`

	Chaos *chaosReport `json:"chaos,omitempty"`
}

func buildReport(snapPath string, snap *dataset.Snapshot, urls *mix, before, after query.StatsInfo, res result,
	requests, workers int, rate float64, seed int64, conditional float64,
	maxInflight int, queueWait, routeTO time.Duration) *benchReport {
	r := &benchReport{
		GeneratedAt:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:    runtime.Version(),
		NumCPU:       runtime.NumCPU(),
		Snapshot:     snapPath,
		Users:        len(snap.Users),
		Games:        len(snap.Games),
		Groups:       len(snap.Groups),
		Requests:     requests,
		Workers:      workers,
		RateLimit:    rate,
		Seed:         seed,
		Conditional:  conditional,
		DistinctURLs: urls.distinct(),
		MaxInflight:  maxInflight,
		QueueWait:    queueWait.String(),
		RouteTimeout: routeTO.String(),
	}
	r.DurationSeconds = res.elapsed.Seconds()
	if r.DurationSeconds > 0 {
		r.ThroughputRPS = float64(res.outcomes[outOK]+res.outcomes[out304]) / r.DurationSeconds
	}
	sum := summarize(res.latencies)
	r.LatencyMs.P50, r.LatencyMs.P90, r.LatencyMs.P99, r.LatencyMs.Max = sum.P50, sum.P90, sum.P99, sum.Max
	r.Routes = make(map[string]latencySummary, len(res.perRoute))
	for family, lat := range res.perRoute {
		r.Routes[family] = summarize(lat)
	}
	r.Classification = classificationOf(res.outcomes)
	r.ShedRate = r.Classification.shedRate()
	r.ErrorRate = r.Classification.errorRate()
	r.Status = make(map[string]int, len(res.status))
	for k, v := range res.status {
		r.Status[fmt.Sprint(k)] += v
	}
	r.Cache.Hits = after.CacheHits - before.CacheHits
	r.Cache.Misses = after.CacheMisses - before.CacheMisses
	if t := r.Cache.Hits + r.Cache.Misses; t > 0 {
		r.Cache.HitRate = float64(r.Cache.Hits) / float64(t)
	}
	r.Cache.NotModified = after.NotModified - before.NotModified
	r.Cache.Entries = after.CacheEntries
	r.ServerShed = after.Shed - before.Shed
	r.ServerDeadline = after.Deadline - before.Deadline
	r.ServerETag = after.SnapshotETag
	return r
}

// writeReport writes (or merges into) the -out file. With chaos, an
// existing file keeps its bench-mode numbers and only the chaos section
// is replaced; without, an existing chaos section survives.
func writeReport(out string, r *benchReport, chaos *chaosReport) {
	if out != "" {
		if prev, err := os.ReadFile(out); err == nil {
			var existing benchReport
			if json.Unmarshal(prev, &existing) == nil && existing.Requests > 0 {
				if chaos != nil {
					*r = existing // keep calm-weather numbers; chaos section replaced below
				} else if existing.Chaos != nil {
					r.Chaos = existing.Chaos
				}
			}
		}
	}
	if chaos != nil {
		r.Chaos = chaos
	}
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	buf = append(buf, '\n')
	if out == "" {
		os.Stdout.Write(buf)
	} else if err := os.WriteFile(out, buf, 0o644); err != nil {
		log.Fatal(err)
	} else {
		fmt.Fprintf(os.Stderr, "steamqueryload: report written to %s\n", out)
	}
	cls, dur, rps, p50, p99 := r.Classification, r.DurationSeconds, r.ThroughputRPS, r.LatencyMs.P50, r.LatencyMs.P99
	if chaos != nil {
		cls, dur, rps, p50, p99 = chaos.Classification, chaos.DurationSeconds, chaos.ThroughputRPS, chaos.LatencyMs.P50, chaos.LatencyMs.P99
	}
	fmt.Fprintf(os.Stderr,
		"steamqueryload: %d ok + %d 304 in %.1fs (%.0f req/s), p50 %.3fms p99 %.3fms | shed %d, 5xx %d, timeouts %d, transport %d\n",
		cls.OK, cls.NotModified, dur, rps, p50, p99,
		cls.Shed, cls.Errors5xx, cls.Timeouts, cls.TransportErrors)
}
