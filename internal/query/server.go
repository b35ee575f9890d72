package query

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"steamstudy/internal/core"
	"steamstudy/internal/dataset"
	"steamstudy/internal/obs"
)

// Config configures a Server.
type Config struct {
	// SnapshotPath is the snapshot file to serve. Reload re-reads it, so
	// publishing a new snapshot is: save it over the path (dataset.Save is
	// atomic), then SIGHUP or POST /v1/admin/reload.
	SnapshotPath string
	// Workers bounds the analysis worker pool (0 = one per CPU, 1 =
	// serial), exactly like the other binaries; the snapshot decode is a
	// single streaming pass.
	Workers int
	// CacheEntries caps the result cache's resident entries (split across
	// shards). 0 means DefCacheEntries; negative means unbounded.
	CacheEntries int
	// Obs, when non-nil, receives the server's counters (prefix "query_"),
	// per-route request counters and latency histograms.
	Obs *obs.Registry
	// Health, when non-nil, gains a "snapshot" readiness check that fails
	// until the first successful load — so /healthz on the admin mux (and
	// the server's own /healthz) gate traffic on snapshot readiness.
	Health *obs.Health

	// MaxInflight bounds concurrently admitted data-route requests
	// (0 = DefMaxInflight, negative = unlimited). Conditional GETs that
	// 304, /v1/stats, /v1/admin/reload and /healthz bypass admission:
	// revalidation and the control plane stay alive under overload.
	MaxInflight int
	// QueueWait is how long a request may wait (FIFO) for a slot before
	// being shed with 503 + Retry-After (0 = DefQueueWait, negative =
	// shed immediately when the pool is full).
	QueueWait time.Duration
	// RouteTimeout is the per-request deadline budget applied via
	// context (0 = DefRouteTimeout, negative = none). Renderer routes
	// get renderTimeoutScale x this; a request whose wait on a collapsed
	// in-flight fill outlives the deadline is shed.
	RouteTimeout time.Duration
	// WarmKeys is how many of the outgoing cache's hottest keys Reload
	// replays into the new state before swapping it in (0 = DefWarmKeys,
	// negative = no warming).
	WarmKeys int

	// testFillDelay, when set (tests only), runs inside every cache fill
	// before the handler — the seam the shedding and deadline tests use
	// to hold slots open deterministically.
	testFillDelay func(route string)
}

// DefCacheEntries is the default result-cache capacity. The full ad-hoc
// query surface of a snapshot is a few hundred distinct URLs plus
// whatever user lookups recur; 4096 entries holds all of it with room
// for a long tail while bounding worst-case residency.
const DefCacheEntries = 4096

// DefWarmKeys is the default reload warming depth: enough for every hot
// board/table plus the head of the per-user tail, small enough that
// warming adds milliseconds, not seconds, to a reload.
const DefWarmKeys = 64

// renderTimeoutScale widens the deadline budget for renderer-backed
// routes (full table/figure renders are the API's heaviest fills).
const renderTimeoutScale = 4

// Metrics are the server's counters, adopted into Config.Obs under the
// "query_" prefix.
type Metrics struct {
	Requests       obs.Counter
	CacheHits      obs.Counter
	CacheMisses    obs.Counter
	NotModified    obs.Counter
	Errors         obs.Counter
	Reloads        obs.Counter
	ReloadFailures obs.Counter
	// ShedTotal counts requests refused at admission (queue full or
	// queue deadline exceeded); DeadlineTotal counts admitted requests
	// shed because their route deadline expired while they waited on a
	// collapsed fill; WarmedTotal counts cache keys replayed by reload
	// warming.
	ShedTotal     obs.Counter
	DeadlineTotal obs.Counter
	WarmedTotal   obs.Counter
}

// state is everything derived from one loaded snapshot. It is immutable
// after construction (the lazy aggregates are sync.Once-guarded) and
// swapped atomically on reload; in-flight requests keep the state they
// started with, so a reload never torn-reads under a handler.
type state struct {
	study *core.Study
	snap  *dataset.Snapshot
	// sha is the snapshot's identity: the manifest's whole-file SHA-256
	// when one was present, else the content signature. etag is its
	// strong-validator form (quoted).
	sha  string
	sig  string
	etag string
	// cache belongs to this state: swapping states discards it wholesale,
	// which is the entire invalidation protocol.
	cache *cache

	userIdx     map[uint64]int32
	gamesOnce   sync.Once
	gamesAgg    []GameRank
	genresOnce  sync.Once
	genreSlices map[string]*GenreSlice
	genreNames  []string
}

// Server serves the /v1 API over a hot-swappable snapshot. Create with
// New (unloaded; endpoints answer 503 until the first Reload) or Open
// (loads eagerly, failing fast on a bad snapshot).
type Server struct {
	cfg     Config
	metrics Metrics
	adm     *admission
	cur     atomic.Pointer[state]
	// reloadMu serializes Reload: concurrent triggers (SIGHUP racing the
	// admin endpoint) queue rather than loading the file twice.
	reloadMu sync.Mutex
	mux      *http.ServeMux
	// fillMux mirrors the cacheable routes for reload warming: its
	// handlers fill the cache of the state carried in the request
	// context, bypassing admission, ETags and response writing.
	fillMux *http.ServeMux
	routes  map[string]*routeMetrics
}

type routeMetrics struct {
	requests *obs.Counter
	latency  *obs.Histogram
}

// routeNames lists the per-route metric labels; each route r gets a
// query_requests:r counter and a query_latency:r histogram.
var routeNames = []string{
	"snapshot", "experiments", "experiment", "percentiles",
	"genres", "genre", "games_top", "groups_top",
	"user", "friends", "stats", "reload",
}

// New builds an unloaded server: the mux and metrics are live, /healthz
// reports unready, and every /v1 endpoint answers 503 until Reload
// succeeds. Use it when the process should come up and expose its admin
// surface even while the first snapshot load is still running (or
// failing); use Open for load-or-die startup.
func New(cfg Config) *Server {
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = DefCacheEntries
	}
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = DefMaxInflight
	}
	if cfg.QueueWait == 0 {
		cfg.QueueWait = DefQueueWait
	}
	if cfg.RouteTimeout == 0 {
		cfg.RouteTimeout = DefRouteTimeout
	}
	if cfg.WarmKeys == 0 {
		cfg.WarmKeys = DefWarmKeys
	}
	s := &Server{cfg: cfg, routes: make(map[string]*routeMetrics, len(routeNames))}
	s.adm = newAdmission(cfg.MaxInflight, cfg.QueueWait)
	cfg.Obs.RegisterCounters("query_", &s.metrics)
	cfg.Obs.GaugeFunc("query_inflight", func() float64 { return float64(s.adm.Inflight()) })
	cfg.Obs.GaugeFunc("query_queued", func() float64 { return float64(s.adm.Queued()) })
	for _, name := range routeNames {
		c := cfg.Obs.Counter("query_requests:" + name)
		h := cfg.Obs.Histogram("query_latency:"+name, obs.DefLatencyBuckets())
		s.routes[name] = &routeMetrics{requests: c, latency: h}
	}
	if cfg.Health != nil {
		cfg.Health.Register("snapshot", func() error {
			if s.cur.Load() == nil {
				return fmt.Errorf("snapshot not loaded")
			}
			return nil
		})
	}
	s.mux = s.buildMux()
	return s
}

// Open is New plus a synchronous first Reload; it fails instead of
// returning a server that would 503 everything.
func Open(cfg Config) (*Server, error) {
	s := New(cfg)
	if err := s.Reload(); err != nil {
		return nil, err
	}
	return s, nil
}

// Reload (re-)loads Config.SnapshotPath, verifies it against its
// manifest, and atomically swaps it in with a fresh result cache.
// Failure leaves the previous state serving untouched — a bad snapshot
// push degrades to "old data plus an error in the reload response", not
// an outage. Concurrent calls serialize.
func (s *Server) Reload() error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	snap, err := dataset.Load(s.cfg.SnapshotPath)
	if err != nil {
		s.metrics.ReloadFailures.Inc()
		return err
	}
	man, err := dataset.ReadManifest(s.cfg.SnapshotPath)
	if err != nil {
		s.metrics.ReloadFailures.Inc()
		return err
	}
	sig := snap.ContentSignature()
	sha := sig
	if man != nil {
		sha = man.FileSHA256
	}
	study := core.FromSnapshot(snap)
	study.SetWorkers(s.cfg.Workers)
	st := &state{
		study:   study,
		snap:    snap,
		sha:     sha,
		sig:     sig,
		etag:    `"` + sha + `"`,
		cache:   newCache(s.cfg.CacheEntries),
		userIdx: snap.UserIndex(),
	}
	s.warm(st)
	s.cur.Store(st)
	s.metrics.Reloads.Inc()
	return nil
}

// warmStateKey carries the state a warming fill should populate —
// s.cur still points at the outgoing state while warming runs.
type warmStateKey struct{}

// warm replays the hottest WarmKeys keys of the outgoing cache into the
// incoming state's cache, so the post-reload working set starts hot
// instead of stampeding the renderer. It runs before the swap: live
// traffic keeps hitting the old warm state until the new one is ready.
// Fill errors are ignored — a key that no longer resolves (say a user
// absent from the new snapshot) simply isn't warmed; errors were never
// cacheable anyway.
func (s *Server) warm(st *state) {
	old := s.cur.Load()
	if old == nil || s.cfg.WarmKeys <= 0 {
		return
	}
	ctx := context.WithValue(context.Background(), warmStateKey{}, st)
	for _, key := range old.cache.hottest(s.cfg.WarmKeys) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, key, nil)
		if err != nil {
			continue
		}
		s.fillMux.ServeHTTP(discardResponse{}, req)
		s.metrics.WarmedTotal.Inc()
	}
}

// discardResponse satisfies http.ResponseWriter for warming fills,
// whose product is the cache entry, not the response.
type discardResponse struct{}

func (discardResponse) Header() http.Header         { return http.Header{} }
func (discardResponse) Write(b []byte) (int, error) { return len(b), nil }
func (discardResponse) WriteHeader(int)             {}

// ETag returns the current snapshot's strong validator ("" when
// unloaded). Clients that saw it in a response header can replay it in
// If-None-Match to revalidate any /v1 resource for free.
func (s *Server) ETag() string {
	if st := s.cur.Load(); st != nil {
		return st.etag
	}
	return ""
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// apiError is an error with a place in the envelope. retryAfter, when
// positive, becomes a Retry-After header: the server's explicit backoff
// request on shed and not-yet-loaded responses.
type apiError struct {
	status     int
	code       string
	msg        string
	retryAfter time.Duration
}

func (e *apiError) Error() string { return e.msg }

func badRequestf(format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, code: "bad_request", msg: fmt.Sprintf(format, args...)}
}

func notFoundf(format string, args ...any) *apiError {
	return &apiError{status: http.StatusNotFound, code: "not_found", msg: fmt.Sprintf(format, args...)}
}

var errUnavailable = &apiError{
	status:     http.StatusServiceUnavailable,
	code:       "unavailable",
	msg:        "no snapshot loaded yet; retry after the server finishes loading",
	retryAfter: DefRetryAfter,
}

// writeError emits the envelope. Error bodies are never cached and carry
// no ETag: they must not be revalidated into permanence.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	ae, ok := err.(*apiError)
	if !ok {
		ae = &apiError{status: http.StatusInternalServerError, code: "internal", msg: err.Error()}
	}
	s.metrics.Errors.Inc()
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if ae.retryAfter > 0 {
		secs := int64((ae.retryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	w.WriteHeader(ae.status)
	json.NewEncoder(w).Encode(ErrorBody{Error: ErrorInfo{Status: ae.status, Code: ae.code, Message: ae.msg}})
}

// handlerFn computes one response body from an immutable state. It runs
// at most once per (state, URL) thanks to the read-through cache.
type handlerFn func(st *state, r *http.Request) (cached, error)

// timeoutFor is the per-route deadline budget: the configured
// RouteTimeout, widened for the renderer-backed experiment route (the
// heaviest fill on the surface). Non-positive means no deadline.
func (s *Server) timeoutFor(route string) time.Duration {
	if s.cfg.RouteTimeout <= 0 {
		return 0
	}
	if route == "experiment" {
		return s.cfg.RouteTimeout * renderTimeoutScale
	}
	return s.cfg.RouteTimeout
}

// handle wires one cacheable GET route: request counting, 503 gating,
// If-None-Match short-circuit, admission control, the per-route
// deadline, cache lookup with in-flight collapsing, ETag stamping,
// latency observation. It also registers the route on fillMux so reload
// warming can replay its cache fills against a not-yet-published state.
func (s *Server) handle(pattern, route string, fn handlerFn) {
	rm := s.routes[route]
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.metrics.Requests.Inc()
		rm.requests.Inc()
		defer rm.latency.ObserveSince(start)
		st := s.cur.Load()
		if st == nil {
			s.writeError(w, errUnavailable)
			return
		}
		// The ETag is snapshot-wide, so a match means the client's copy of
		// THIS url is still current — answer 304 without touching the cache
		// and without an admission slot: revalidation costs nothing and
		// must keep working while the server sheds expensive work.
		if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, st.etag) {
			s.metrics.NotModified.Inc()
			w.Header().Set("ETag", st.etag)
			w.WriteHeader(http.StatusNotModified)
			return
		}
		if err := s.adm.acquire(r.Context()); err != nil {
			s.metrics.ShedTotal.Inc()
			s.writeError(w, err)
			return
		}
		defer s.adm.release()
		ctx := r.Context()
		if d := s.timeoutFor(route); d > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, d)
			defer cancel()
			r = r.WithContext(ctx)
		}
		val, hit, err := st.cache.do(ctx, cacheKey(r.URL), func() (cached, error) {
			if s.cfg.testFillDelay != nil {
				s.cfg.testFillDelay(route)
			}
			return fn(st, r)
		})
		if hit {
			s.metrics.CacheHits.Inc()
		} else if err == nil {
			s.metrics.CacheMisses.Inc()
		}
		if err != nil {
			if err == errDeadline {
				s.metrics.DeadlineTotal.Inc()
			}
			s.writeError(w, err)
			return
		}
		h := w.Header()
		h.Set("ETag", st.etag)
		h.Set("Content-Type", val.ctype)
		w.Write(val.body)
	})
	s.fillMux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		st, ok := r.Context().Value(warmStateKey{}).(*state)
		if !ok {
			return
		}
		st.cache.do(r.Context(), cacheKey(r.URL), func() (cached, error) {
			return fn(st, r)
		})
	})
}

// cacheKey canonicalizes a request URL: path plus the sorted query
// encoding, so ?p=50&nonzero=1 and ?nonzero=1&p=50 share an entry.
func cacheKey(u *url.URL) string {
	if u.RawQuery == "" {
		return u.Path
	}
	return u.Path + "?" + u.Query().Encode() // Encode sorts keys
}

// etagMatch implements If-None-Match for a single strong validator: "*"
// matches anything, otherwise any listed tag may match. Weak-comparison
// (W/ prefix) tags compare by opaque value, per RFC 9110 §8.8.3.2.
func etagMatch(headerVal, etag string) bool {
	if headerVal == "*" {
		return true
	}
	for _, part := range splitCSV(headerVal) {
		if t, ok := trimWeak(part); ok && t == etag {
			return true
		}
	}
	return false
}

func splitCSV(s string) []string {
	var out []string
	for len(s) > 0 {
		i := 0
		for i < len(s) && s[i] != ',' {
			i++
		}
		part := trimSpace(s[:i])
		if part != "" {
			out = append(out, part)
		}
		if i == len(s) {
			break
		}
		s = s[i+1:]
	}
	return out
}

func trimSpace(s string) string {
	for len(s) > 0 && (s[0] == ' ' || s[0] == '\t') {
		s = s[1:]
	}
	for len(s) > 0 && (s[len(s)-1] == ' ' || s[len(s)-1] == '\t') {
		s = s[:len(s)-1]
	}
	return s
}

func trimWeak(s string) (string, bool) {
	if len(s) >= 2 && s[0] == 'W' && s[1] == '/' {
		s = s[2:]
	}
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		return s, true
	}
	return "", false
}

// jsonBody marshals v into a cached JSON response. MarshalIndent keeps
// bodies diffable by hand; the bytes are deterministic for a given
// snapshot, which the ETag contract requires.
func jsonBody(v any) (cached, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return cached{}, err
	}
	return cached{body: append(b, '\n'), ctype: "application/json; charset=utf-8"}, nil
}

// buildMux registers every route. Method+wildcard patterns (Go 1.22
// ServeMux) give 405s for wrong methods and {id} capture for free.
func (s *Server) buildMux() *http.ServeMux {
	s.mux = http.NewServeMux()
	s.fillMux = http.NewServeMux()
	s.handle("GET /v1/snapshot", "snapshot", handleSnapshot)
	s.handle("GET /v1/experiments", "experiments", handleExperiments)
	s.handle("GET /v1/experiments/{id}", "experiment", handleExperiment)
	s.handle("GET /v1/percentiles/{attr}", "percentiles", handlePercentiles)
	s.handle("GET /v1/genres", "genres", handleGenres)
	s.handle("GET /v1/genres/{genre}", "genre", handleGenre)
	s.handle("GET /v1/games/top", "games_top", handleTopGames)
	s.handle("GET /v1/groups/top", "groups_top", handleTopGroups)
	s.handle("GET /v1/users/{id}", "user", handleUser)
	s.handle("GET /v1/users/{id}/friends", "friends", handleFriends)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/admin/reload", s.handleReload)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		s.metrics.Requests.Inc()
		s.writeError(w, notFoundf("no such endpoint: %s %s", r.Method, r.URL.Path))
	})
	return s.mux
}

// handleStats serves live counters, uncached and un-ETagged — its body
// changes between identical requests by design.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.metrics.Requests.Inc()
	rm := s.routes["stats"]
	rm.requests.Inc()
	start := time.Now()
	defer rm.latency.ObserveSince(start)
	info := StatsInfo{
		Requests:       s.metrics.Requests.Load(),
		CacheHits:      s.metrics.CacheHits.Load(),
		CacheMisses:    s.metrics.CacheMisses.Load(),
		NotModified:    s.metrics.NotModified.Load(),
		Errors:         s.metrics.Errors.Load(),
		Reloads:        s.metrics.Reloads.Load(),
		ReloadFailures: s.metrics.ReloadFailures.Load(),
		Shed:           s.metrics.ShedTotal.Load(),
		Deadline:       s.metrics.DeadlineTotal.Load(),
		Warmed:         s.metrics.WarmedTotal.Load(),
		Inflight:       s.adm.Inflight(),
		Queued:         s.adm.Queued(),
	}
	if st := s.cur.Load(); st != nil {
		info.SnapshotETag = st.etag
		info.CacheEntries = st.cache.len()
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("Cache-Control", "no-store")
	json.NewEncoder(w).Encode(info)
}

// handleReload triggers a hot reload. The response reports the freshly
// loaded snapshot; failure reports the error while the old snapshot
// keeps serving.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	s.metrics.Requests.Inc()
	rm := s.routes["reload"]
	rm.requests.Inc()
	start := time.Now()
	defer rm.latency.ObserveSince(start)
	if err := s.Reload(); err != nil {
		s.writeError(w, fmt.Errorf("reload failed (previous snapshot still serving): %w", err))
		return
	}
	st := s.cur.Load()
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(ReloadResult{
		ETag:        st.etag,
		Users:       len(st.snap.Users),
		Games:       len(st.snap.Games),
		Groups:      len(st.snap.Groups),
		CollectedAt: st.snap.CollectedAt,
	})
}

// handleHealthz mirrors the admin mux's readiness semantics on the
// serving port, so a load balancer needs only one address.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.cur.Load() == nil {
		http.Error(w, "unhealthy: snapshot not loaded", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// sortedCopy returns a sorted copy of ranks using less.
func sortedCopy[T any](xs []T, less func(a, b T) bool) []T {
	out := append([]T(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}
