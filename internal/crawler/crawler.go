package crawler

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"steamstudy/internal/dataset"
	"steamstudy/internal/obs"
	"steamstudy/internal/par"
	"steamstudy/internal/ratelimit"
	"steamstudy/internal/steamapi"
	"steamstudy/internal/steamid"
)

// Config configures a crawl.
type Config struct {
	// BaseURL is the API root (e.g. "http://127.0.0.1:8080").
	BaseURL string
	// APIKey is sent as the key parameter on every call.
	APIKey string
	// RatePerSecond is the crawler's self-imposed call budget; per §3.1
	// set this to ~85 % of the server's allowance. Zero means a generous
	// local default. Under 429/503 pressure the AIMD throttle backs off
	// from this rate and recovers toward it.
	RatePerSecond float64
	// Burst is the limiter burst (defaults to RatePerSecond).
	Burst int
	// Workers is the fan-out width shared by the detail phases 2–5:
	// account details, storefront catalog, achievement sets and group
	// pages all run on a pool this wide (default 8). The worker count is
	// purely a throughput knob — results and journal appends are
	// committed in work-list order, so the snapshot and the journal byte
	// stream are identical for every value.
	Workers int
	// MaxRetries per request (default 4).
	MaxRetries int
	// RetryBackoff is the initial backoff (default 100ms).
	RetryBackoff time.Duration
	// MaxBackoff clamps the exponential backoff (default 30s).
	MaxBackoff time.Duration
	// RequestTimeout bounds each HTTP attempt, so stalled responses fail
	// fast and are retried (default 15s).
	RequestTimeout time.Duration
	// BreakerThreshold is the consecutive-failure count that opens an
	// endpoint class's circuit breaker (default 5; negative disables
	// circuit breaking).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects requests before
	// admitting a half-open probe (default 5s).
	BreakerCooldown time.Duration
	// DisableAdaptiveThrottle turns off the AIMD rate controller and pins
	// the limiter at RatePerSecond.
	DisableAdaptiveThrottle bool
	// StartID begins the sweep (defaults to the public base ID).
	StartID steamid.ID
	// EmptyBatchLimit ends phase 1 after this many consecutive all-empty
	// 100-ID batches — the sweep has run past the youngest account
	// (default 20).
	EmptyBatchLimit int
	// RangeStart and RangeEnd, when RangeEnd is nonzero, restrict the
	// phase-1 sweep to the half-open SteamID64 interval
	// [RangeStart, RangeEnd). The range is finite, so the sweep covers it
	// exhaustively and EmptyBatchLimit does not apply; MaxAccounts is
	// ignored. This is how a fleet worker crawls one leased shard.
	RangeStart uint64
	RangeEnd   uint64
	// SkipTailOnEmpty skips the tail phases (3-5: catalog, achievements,
	// groups) when phases 1-2 found zero accounts, journaling the
	// phase-done markers so a resume agrees. A fleet's frontier shards are
	// empty by construction; re-fetching the full catalog for each would
	// multiply the tail work by the fleet size for records another shard
	// already holds.
	SkipTailOnEmpty bool
	// MaxAccounts optionally caps the crawl (0 = exhaustive).
	MaxAccounts int
	// CheckpointPath names a journal directory enabling resumable crawls
	// when non-empty. Every completed unit of phases 2–5 is appended to
	// the journal as it finishes, so a crawl killed at any instant
	// resumes losslessly.
	CheckpointPath string
	// LeaseEpoch, when nonzero, opens the journal with a fencing epoch: a
	// fleet lease's per-shard issue number. The journal durably pins the
	// highest epoch that ever wrote it and refuses appends (ErrFenced)
	// once a higher epoch takes over, so a worker paused past its lease
	// TTL cannot corrupt a shard a successor now owns. Zero (the solo
	// default) means unfenced.
	LeaseEpoch uint64
	// SegmentMaxBytes rotates journal segments at this size (default
	// 4 MiB).
	SegmentMaxBytes int64
	// ProgressEvery emits a one-line health summary through Logf at this
	// interval during Run (default 30s; negative disables).
	ProgressEvery time.Duration
	// Logf receives progress lines (nil disables logging).
	Logf func(format string, args ...any)
	// Registry receives the crawler's live metrics: every counter in
	// Metrics, per-phase spans, per-endpoint-class request/retry/error
	// counters, per-class breaker state gauges, and the AIMD rate gauge.
	// Serve it with obs.AdminMux (the steamcrawl -admin listener) to
	// watch a multi-month crawl live. Nil disables nothing — the crawler
	// records into detached metrics at the same hot-path cost.
	Registry *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.RatePerSecond <= 0 {
		c.RatePerSecond = 5000
	}
	if c.Burst <= 0 {
		c.Burst = int(c.RatePerSecond) + 1
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 4
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 100 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 30 * time.Second
	}
	if c.MaxBackoff < c.RetryBackoff {
		c.MaxBackoff = c.RetryBackoff
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 15 * time.Second
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.StartID == 0 {
		c.StartID = steamid.ID(steamid.Base)
	}
	if c.EmptyBatchLimit <= 0 {
		c.EmptyBatchLimit = 20
	}
	if c.RangeEnd > 0 && c.RangeStart < steamid.Base {
		// SteamID64s start at the base offset; a zero (or sub-base)
		// RangeStart means "from the beginning of the ID space", not a
		// quadrillion-ID sweep through IDs that cannot exist.
		c.RangeStart = steamid.Base
	}
	if c.SegmentMaxBytes <= 0 {
		c.SegmentMaxBytes = defaultSegmentBytes
	}
	if c.ProgressEvery == 0 {
		c.ProgressEvery = 30 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Metrics counts crawl activity (atomics, safe to read live). The fields
// are obs counters; with a Config.Registry they also back the crawler's
// /metrics surface, so the same values feed Snapshot(), the progress
// lines, and the admin endpoint.
type Metrics struct {
	Requests     obs.Counter
	Errors       obs.Counter
	RateLimited  obs.Counter
	Unavailable  obs.Counter // 503 responses
	Retries      obs.Counter
	DecodeErrors obs.Counter

	Profiles  obs.Counter
	UsersDone obs.Counter

	BreakerOpens     obs.Counter
	BreakerHalfOpens obs.Counter
	BreakerCloses    obs.Counter

	ThrottleDowns obs.Counter // AIMD multiplicative decreases

	JournalRecords  obs.Counter
	JournalSegments obs.Counter

	// FenceRejections counts journal opens/appends refused because the
	// journal's fence epoch had moved past this crawl's lease epoch — a
	// zombie worker being turned away.
	FenceRejections obs.Counter
}

// MetricsSnapshot is a plain-value copy of Metrics at one instant.
type MetricsSnapshot struct {
	Requests         int64
	Errors           int64
	RateLimited      int64
	Unavailable      int64
	Retries          int64
	DecodeErrors     int64
	Profiles         int64
	UsersDone        int64
	BreakerOpens     int64
	BreakerHalfOpens int64
	BreakerCloses    int64
	ThrottleDowns    int64
	JournalRecords   int64
	JournalSegments  int64
	FenceRejections  int64
}

// Snapshot copies every counter at one instant, for logging and tests.
func (m *Metrics) Snapshot() MetricsSnapshot {
	var s MetricsSnapshot
	obs.FillSnapshot(m, &s)
	return s
}

// Crawler drives a full crawl.
type Crawler struct {
	cfg    Config
	client *client
	obs    *obs.Registry
	// Metrics is live during Run.
	Metrics Metrics

	mu      sync.Mutex
	batches []batchDensity
}

// batchDensity records how many of one 100-ID batch resolved to valid
// accounts — the raw data behind the §3.1 observation that account
// density sits below 50 % early in the ID range and above 90 % later.
type batchDensity struct {
	start uint64
	found int
}

// New creates a crawler.
func New(cfg Config) *Crawler {
	cfg = cfg.withDefaults()
	c := &Crawler{cfg: cfg, obs: cfg.Registry}
	c.obs.RegisterCounters("crawler_", &c.Metrics)
	limiter := ratelimit.New(cfg.RatePerSecond, cfg.Burst)
	c.client = &client{
		base:       strings.TrimSuffix(cfg.BaseURL, "/"),
		key:        cfg.APIKey,
		http:       &http.Client{},
		limiter:    limiter,
		retries:    cfg.MaxRetries,
		backoff:    cfg.RetryBackoff,
		maxBackoff: cfg.MaxBackoff,
		reqTimeout: cfg.RequestTimeout,
		metrics:    &c.Metrics,
		obs:        cfg.Registry,
	}
	c.obs.GaugeFunc("crawler_rate_per_second", c.Rate)
	if cfg.BreakerThreshold > 0 {
		c.client.breakers = newBreakerSet(cfg.BreakerThreshold, cfg.BreakerCooldown, &c.Metrics, cfg.Registry)
	}
	if !cfg.DisableAdaptiveThrottle {
		c.client.aimd = newAIMD(limiter, cfg.RatePerSecond, &c.Metrics)
	}
	return c
}

// BreakerStates snapshots each endpoint class's breaker state (empty when
// circuit breaking is disabled).
func (c *Crawler) BreakerStates() map[string]BreakerState {
	if c.client.breakers == nil {
		return nil
	}
	return c.client.breakers.States()
}

// Rate returns the limiter's current requests/second (the AIMD throttle
// moves it below the configured budget under pressure).
func (c *Crawler) Rate() float64 { return c.client.limiter.Rate() }

// Run executes all crawl phases and assembles the snapshot. With a
// journal configured, each phase skips work the journal already holds and
// appends new work as it completes, so Run after a crash resumes exactly
// where the dead process stopped.
func (c *Crawler) Run(ctx context.Context) (*dataset.Snapshot, error) {
	snap := &dataset.Snapshot{CollectedAt: time.Now().Unix()}

	var (
		jr *journal
		st *crawlState
	)
	if c.cfg.CheckpointPath != "" {
		var err error
		jr, st, err = openJournalAt(c.cfg.CheckpointPath, c.cfg.SegmentMaxBytes, &c.Metrics, c.cfg.LeaseEpoch)
		if err != nil {
			return nil, fmt.Errorf("crawler: journal: %w", err)
		}
		defer jr.Close()
		if len(st.users) > 0 || st.phaseDone[2] {
			c.cfg.Logf("resuming from journal: %d users, %d games, %d achievement sets, %d groups replayed",
				len(st.users), len(st.games), len(st.achDone), len(st.groups))
		}
	} else {
		st = newCrawlState()
	}

	stopProgress := c.startProgress(ctx, jr)
	defer stopProgress()

	snap.Users = st.users

	// Phases 1+2: profile sweep and per-account detail. Both are skipped
	// when the journal says phase 2 finished — resuming a later phase
	// must not redo the six-month part.
	if !st.phaseDone[2] {
		done := make(map[uint64]bool, len(st.users))
		for i := range st.users {
			done[st.users[i].SteamID] = true
		}

		// Phase 1: exhaustive profile sweep.
		sp := c.obs.Span("crawler_phase1_sweep")
		sp.Start()
		profiles, err := c.sweepProfiles(ctx)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("crawler: phase 1 (profiles): %w", err)
		}
		c.cfg.Logf("phase 1 complete: %d accounts found", len(profiles))

		// Phase 2: per-account friends, games, groups.
		sp = c.obs.Span("crawler_phase2_accounts")
		sp.Start()
		err = c.fetchAccounts(ctx, snap, profiles, done, jr)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("crawler: phase 2 (accounts): %w", err)
		}
		if err := jr.appendPhaseDone(2); err != nil {
			return nil, err
		}
		c.cfg.Logf("phase 2 complete: %d accounts detailed", len(snap.Users))
	}

	// An empty shard (fleet frontier) contributes nothing to the tail
	// phases; skip them and journal the markers so a resumed run over the
	// same journal reaches the same decision without re-evaluating.
	if c.cfg.SkipTailOnEmpty && len(snap.Users) == 0 {
		for _, phase := range []uint8{3, 4, 5} {
			if !st.phaseDone[phase] {
				if err := jr.appendPhaseDone(phase); err != nil {
					return nil, err
				}
			}
		}
		st.phaseDone[3], st.phaseDone[4], st.phaseDone[5] = true, true, true
		c.cfg.Logf("empty range: tail phases skipped")
	}

	// Phase 3: catalog.
	snap.Games = st.games
	if !st.phaseDone[3] {
		sp := c.obs.Span("crawler_phase3_catalog")
		sp.Start()
		err := c.fetchCatalog(ctx, snap, st, jr)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("crawler: phase 3 (catalog): %w", err)
		}
		if err := jr.appendPhaseDone(3); err != nil {
			return nil, err
		}
		c.cfg.Logf("phase 3 complete: %d products", len(snap.Games))
	}

	// Phase 4: achievements. Replayed achievement sets are attached to
	// their games; only the remainder is fetched.
	st.attachAch(snap.Games)
	if !st.phaseDone[4] {
		sp := c.obs.Span("crawler_phase4_achievements")
		sp.Start()
		err := c.fetchAchievements(ctx, snap, st, jr)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("crawler: phase 4 (achievements): %w", err)
		}
		if err := jr.appendPhaseDone(4); err != nil {
			return nil, err
		}
	}

	// Phase 5: group pages for categorization.
	snap.Groups = st.groups
	if !st.phaseDone[5] {
		sp := c.obs.Span("crawler_phase5_groups")
		sp.Start()
		err := c.fetchGroups(ctx, snap, st, jr)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("crawler: phase 5 (groups): %w", err)
		}
		if err := jr.appendPhaseDone(5); err != nil {
			return nil, err
		}
	}
	c.cfg.Logf("crawl complete: %d users, %d games, %d groups",
		len(snap.Users), len(snap.Games), len(snap.Groups))

	sortSnapshot(snap)
	return snap, nil
}

// startProgress spawns the health-summary ticker; the returned func stops
// it. Disabled when ProgressEvery < 0 or no Logf is configured.
func (c *Crawler) startProgress(ctx context.Context, jr *journal) func() {
	if c.cfg.ProgressEvery < 0 {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(c.cfg.ProgressEvery)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				c.cfg.Logf("%s", c.progressLine(jr))
			}
		}
	}()
	return func() { close(done) }
}

// progressLine renders the one-line crawl health summary.
func (c *Crawler) progressLine(jr *journal) string {
	s := c.Metrics.Snapshot()
	line := fmt.Sprintf(
		"progress: requests=%d errors=%d 429=%d 503=%d retries=%d users=%d rate=%.0f/s",
		s.Requests, s.Errors, s.RateLimited, s.Unavailable, s.Retries,
		s.UsersDone, c.Rate())
	if states := c.BreakerStates(); len(states) > 0 {
		classes := make([]string, 0, len(states))
		for class := range states {
			classes = append(classes, class)
		}
		sort.Strings(classes)
		parts := make([]string, 0, len(classes))
		for _, class := range classes {
			parts = append(parts, class+"="+states[class].String())
		}
		line += " breakers[" + strings.Join(parts, " ") + "]"
	}
	if jr != nil {
		seg, off := jr.Position()
		line += fmt.Sprintf(" journal[seg=%d off=%d records=%d]", seg, off, s.JournalRecords)
	}
	return line
}

// sweepProfiles walks the ID space in 100-ID batches (§3.1) until the
// sweep has passed the youngest account.
func (c *Crawler) sweepProfiles(ctx context.Context) ([]steamapi.PlayerSummary, error) {
	if c.cfg.RangeEnd > 0 {
		return c.sweepRange(ctx)
	}
	var out []steamapi.PlayerSummary
	emptyRun := 0
	next := uint64(c.cfg.StartID)
	for emptyRun < c.cfg.EmptyBatchLimit {
		if c.cfg.MaxAccounts > 0 && len(out) >= c.cfg.MaxAccounts {
			break
		}
		ids := make([]string, 0, steamapi.MaxSummariesPerCall)
		for i := 0; i < steamapi.MaxSummariesPerCall; i++ {
			ids = append(ids, strconv.FormatUint(next, 10))
			next++
		}
		var resp steamapi.PlayerSummariesResponse
		params := url.Values{"steamids": {strings.Join(ids, ",")}}
		if err := c.client.getJSON(ctx, "/ISteamUser/GetPlayerSummaries/v0002/", params, &resp); err != nil {
			return nil, err
		}
		c.mu.Lock()
		c.batches = append(c.batches, batchDensity{
			start: next - uint64(steamapi.MaxSummariesPerCall),
			found: len(resp.Response.Players),
		})
		c.mu.Unlock()
		if len(resp.Response.Players) == 0 {
			emptyRun++
			continue
		}
		emptyRun = 0
		out = append(out, resp.Response.Players...)
		c.Metrics.Profiles.Add(int64(len(resp.Response.Players)))
	}
	if c.cfg.MaxAccounts > 0 && len(out) > c.cfg.MaxAccounts {
		out = out[:c.cfg.MaxAccounts]
	}
	return out, nil
}

// sweepRange is the fleet-shard variant of the phase-1 sweep: it covers
// exactly [RangeStart, RangeEnd), clamping the final batch to the range
// edge instead of probing for the youngest-account frontier — the lease
// table, not the density heuristic, decides where the work space ends.
func (c *Crawler) sweepRange(ctx context.Context) ([]steamapi.PlayerSummary, error) {
	var out []steamapi.PlayerSummary
	for next := c.cfg.RangeStart; next < c.cfg.RangeEnd; {
		n := uint64(steamapi.MaxSummariesPerCall)
		if rem := c.cfg.RangeEnd - next; rem < n {
			n = rem
		}
		start := next
		ids := make([]string, 0, n)
		for i := uint64(0); i < n; i++ {
			ids = append(ids, strconv.FormatUint(next, 10))
			next++
		}
		var resp steamapi.PlayerSummariesResponse
		params := url.Values{"steamids": {strings.Join(ids, ",")}}
		if err := c.client.getJSON(ctx, "/ISteamUser/GetPlayerSummaries/v0002/", params, &resp); err != nil {
			return nil, err
		}
		c.mu.Lock()
		c.batches = append(c.batches, batchDensity{start: start, found: len(resp.Response.Players)})
		c.mu.Unlock()
		out = append(out, resp.Response.Players...)
		c.Metrics.Profiles.Add(int64(len(resp.Response.Players)))
	}
	return out, nil
}

// fetchAccounts runs phase 2 with a worker pool. Each completed account
// is journaled immediately, so at most the in-flight accounts are redone
// after a crash.
func (c *Crawler) fetchAccounts(ctx context.Context, snap *dataset.Snapshot, profiles []steamapi.PlayerSummary, done map[uint64]bool, jr *journal) error {
	type result struct {
		rec dataset.UserRecord
		err error
	}
	work := make(chan steamapi.PlayerSummary)
	results := make(chan result)
	var wg sync.WaitGroup
	for w := 0; w < c.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range work {
				rec, err := c.fetchOneAccount(ctx, p)
				select {
				case results <- result{rec: rec, err: err}:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		defer close(work)
		for _, p := range profiles {
			id, err := strconv.ParseUint(p.SteamID, 10, 64)
			if err != nil || (done != nil && done[id]) {
				continue
			}
			select {
			case work <- p:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()

	for r := range results {
		if r.err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return r.err
		}
		snap.Users = append(snap.Users, r.rec)
		c.Metrics.UsersDone.Add(1)
		if err := jr.appendUser(&r.rec); err != nil {
			return err
		}
	}
	return ctx.Err()
}

// fetchOneAccount collects friends, games and groups for one profile.
func (c *Crawler) fetchOneAccount(ctx context.Context, p steamapi.PlayerSummary) (dataset.UserRecord, error) {
	id, err := strconv.ParseUint(p.SteamID, 10, 64)
	if err != nil {
		return dataset.UserRecord{}, fmt.Errorf("bad steamid %q: %w", p.SteamID, err)
	}
	rec := dataset.UserRecord{
		SteamID: id,
		Created: p.TimeCreated,
		Country: p.LocCountryCode,
		City:    p.LocCityID,
	}
	params := url.Values{"steamid": {p.SteamID}}

	var friends steamapi.FriendListResponse
	if err := c.client.getJSON(ctx, "/ISteamUser/GetFriendList/v0001/", params, &friends); err != nil {
		if !IsNotFound(err) {
			return rec, err
		}
	}
	for _, f := range friends.FriendsList.Friends {
		fid, err := strconv.ParseUint(f.SteamID, 10, 64)
		if err != nil {
			continue
		}
		rec.Friends = append(rec.Friends, dataset.FriendRecord{SteamID: fid, Since: f.FriendSince})
	}

	var games steamapi.OwnedGamesResponse
	params = url.Values{"steamid": {p.SteamID}, "include_played_free_games": {"1"}}
	if err := c.client.getJSON(ctx, "/IPlayerService/GetOwnedGames/v0001/", params, &games); err != nil {
		if !IsNotFound(err) {
			return rec, err
		}
	}
	for _, g := range games.Response.Games {
		rec.Games = append(rec.Games, dataset.OwnershipRecord{
			AppID:          g.AppID,
			TotalMinutes:   g.PlaytimeForever,
			TwoWeekMinutes: g.Playtime2Weeks,
		})
	}

	var groups steamapi.UserGroupListResponse
	params = url.Values{"steamid": {p.SteamID}}
	if err := c.client.getJSON(ctx, "/ISteamUser/GetUserGroupList/v0001/", params, &groups); err != nil {
		if !IsNotFound(err) {
			return rec, err
		}
	}
	for _, g := range groups.Response.Groups {
		gid, err := strconv.ParseUint(g.GID, 10, 64)
		if err != nil {
			continue
		}
		rec.Groups = append(rec.Groups, gid)
	}
	return rec, nil
}

// fanOut runs n independent fetch units on a pool of `workers`
// goroutines and commits each result from the caller's goroutine in
// strict work-list order. It is the machinery behind the tail phases
// (3–5): fetches overlap freely, but snapshot appends and journal
// appends happen exactly as the sequential loop would do them, so the
// snapshot and the journal byte stream are identical for every worker
// count — crash-resume replay cannot tell the difference.
//
// After the first error (fetch or commit), later fetches short-circuit
// to a no-op so the pipeline drains quickly instead of finishing a
// long work list nobody will consume.
func fanOut[T any](workers, n int, fetch func(i int) (T, error), commit func(i int, v T) error) error {
	type unit struct {
		v   T
		err error
	}
	var failed atomic.Bool
	return par.Ordered(workers, n, func(i int) unit {
		if failed.Load() {
			return unit{}
		}
		v, err := fetch(i)
		if err != nil {
			failed.Store(true)
		}
		return unit{v: v, err: err}
	}, func(i int, u unit) error {
		if u.err != nil {
			return u.err
		}
		if err := commit(i, u.v); err != nil {
			failed.Store(true)
			return err
		}
		return nil
	})
}

// fetchCatalog runs phase 3: the app index, then storefront details
// fanned out on the worker pool. Apps whose records the journal already
// holds are skipped. A nil produced record means "no storefront entry"
// — the sequential loop's continue.
func (c *Crawler) fetchCatalog(ctx context.Context, snap *dataset.Snapshot, st *crawlState, jr *journal) error {
	have := make(map[uint32]bool, len(st.games))
	for i := range st.games {
		have[st.games[i].AppID] = true
	}
	var apps steamapi.AppListResponse
	if err := c.client.getJSON(ctx, "/ISteamApps/GetAppList/v0002/", url.Values{}, &apps); err != nil {
		return err
	}
	todo := make([]steamapi.App, 0, len(apps.AppList.Apps))
	for _, app := range apps.AppList.Apps {
		if !have[app.AppID] {
			todo = append(todo, app)
		}
	}
	return fanOut(c.cfg.Workers, len(todo),
		func(i int) (*dataset.GameRecord, error) {
			app := todo[i]
			var details steamapi.AppDetailsResponse
			params := url.Values{"appids": {strconv.FormatUint(uint64(app.AppID), 10)}}
			if err := c.client.getJSON(ctx, "/store/appdetails", params, &details); err != nil {
				if IsNotFound(err) {
					return nil, nil
				}
				return nil, err
			}
			entry := details[strconv.FormatUint(uint64(app.AppID), 10)]
			if !entry.Success || entry.Data == nil {
				return nil, nil
			}
			d := entry.Data
			rec := &dataset.GameRecord{
				AppID:       app.AppID,
				Name:        d.Name,
				Type:        d.Type,
				ReleaseYear: d.ReleaseYear,
			}
			for _, g := range d.Genres {
				rec.Genres = append(rec.Genres, g.Description)
			}
			for _, cat := range d.Categories {
				if cat.ID == steamapi.CategoryMultiplayer {
					rec.Multiplayer = true
				}
			}
			if d.PriceOverview != nil {
				rec.PriceCents = d.PriceOverview.Final
			}
			if d.Metacritic != nil {
				rec.Metacritic = d.Metacritic.Score
			}
			if len(d.Developers) > 0 {
				rec.Developer = d.Developers[0]
			}
			return rec, nil
		},
		func(_ int, rec *dataset.GameRecord) error {
			if rec == nil {
				return nil
			}
			snap.Games = append(snap.Games, *rec)
			return jr.appendGame(rec)
		})
}

// fetchAchievements runs phase 4 over every catalog product not already
// covered by the journal, fanned out on the worker pool. Each fetch
// reads only its own game's AppID and each commit writes only its own
// game's Achievements slot, with journal appends in catalog order.
func (c *Crawler) fetchAchievements(ctx context.Context, snap *dataset.Snapshot, st *crawlState, jr *journal) error {
	todo := make([]int, 0, len(snap.Games))
	for i := range snap.Games {
		if !st.achDone[snap.Games[i].AppID] {
			todo = append(todo, i)
		}
	}
	return fanOut(c.cfg.Workers, len(todo),
		func(i int) ([]dataset.AchievementRecord, error) {
			appID := snap.Games[todo[i]].AppID
			var resp steamapi.AchievementPercentagesResponse
			params := url.Values{"gameid": {strconv.FormatUint(uint64(appID), 10)}}
			if err := c.client.getJSON(ctx, "/ISteamUserStats/GetGlobalAchievementPercentagesForApp/v0002/", params, &resp); err != nil {
				if !IsNotFound(err) {
					return nil, err
				}
				// A vanished app still gets an (empty) journal entry so the
				// resume does not re-ask.
			}
			var ach []dataset.AchievementRecord
			for _, a := range resp.AchievementPercentages.Achievements {
				ach = append(ach, dataset.AchievementRecord{Name: a.Name, Percent: a.Percent})
			}
			return ach, nil
		},
		func(i int, ach []dataset.AchievementRecord) error {
			gi := todo[i]
			snap.Games[gi].Achievements = ach
			return jr.appendAch(snap.Games[gi].AppID, ach)
		})
}

// fetchGroups runs phase 5: collect the GIDs seen in memberships, fetch
// each group's community page on the worker pool, and categorize it
// from the page text (the automated analog of the paper's manual step).
// Groups the journal already holds are skipped; commits land in
// ascending-GID order regardless of worker count.
func (c *Crawler) fetchGroups(ctx context.Context, snap *dataset.Snapshot, st *crawlState, jr *journal) error {
	members := map[uint64][]uint64{}
	for i := range snap.Users {
		for _, gid := range snap.Users[i].Groups {
			members[gid] = append(members[gid], snap.Users[i].SteamID)
		}
	}
	// Membership lists inherit phase 2's completion order, which varies
	// with worker count; canonicalize before any record is journaled so
	// the group records themselves are worker-invariant.
	for gid := range members {
		m := members[gid]
		sort.Slice(m, func(a, b int) bool { return m[a] < m[b] })
	}
	have := make(map[uint64]bool, len(st.groups))
	for i := range st.groups {
		have[st.groups[i].GID] = true
	}
	gids := make([]uint64, 0, len(members))
	for gid := range members {
		if !have[gid] {
			gids = append(gids, gid)
		}
	}
	sort.Slice(gids, func(a, b int) bool { return gids[a] < gids[b] })
	return fanOut(c.cfg.Workers, len(gids),
		func(i int) (dataset.GroupRecord, error) {
			gid := gids[i]
			var page steamapi.GroupPage
			params := url.Values{"gid": {strconv.FormatUint(gid, 10)}}
			if err := c.client.getJSON(ctx, "/community/group", params, &page); err != nil {
				if !IsNotFound(err) {
					return dataset.GroupRecord{}, err
				}
				// Group page gone; keep the membership data untyped.
				return dataset.GroupRecord{GID: gid, Members: members[gid]}, nil
			}
			return dataset.GroupRecord{
				GID:     gid,
				Name:    page.Name,
				Type:    CategorizeGroup(page.Name, page.Summary),
				Members: members[gid],
			}, nil
		},
		func(_ int, rec dataset.GroupRecord) error {
			snap.Groups = append(snap.Groups, rec)
			return jr.appendGroup(&rec)
		})
}

// CategorizeGroup infers a Table 2 group type from community page text.
// The paper's authors did this by hand for the top 250 groups; the same
// signal (page title and summary wording) drives this classifier.
func CategorizeGroup(name, summary string) string {
	text := strings.ToLower(name + " " + summary)
	for _, ty := range []string{
		"Game Server", "Single Game", "Gaming Community",
		"Special Interest", "Publisher", "Steam",
	} {
		if strings.Contains(text, strings.ToLower(ty)) {
			return ty
		}
	}
	return ""
}

// DensityProfile aggregates the phase-1 sweep into `buckets` equal spans
// of the swept ID range and returns the valid-account density of each —
// reproducing the §3.1 density observation. Trailing all-empty batches
// (the overshoot past the youngest account) are excluded. Returns nil if
// phase 1 has not run.
func (c *Crawler) DensityProfile(buckets int) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.batches) == 0 || buckets <= 0 {
		return nil
	}
	// Trim the trailing empty overshoot.
	last := len(c.batches) - 1
	for last >= 0 && c.batches[last].found == 0 {
		last--
	}
	if last < 0 {
		return nil
	}
	trimmed := c.batches[:last+1]
	out := make([]float64, buckets)
	counts := make([]int, buckets)
	for i, b := range trimmed {
		bucket := i * buckets / len(trimmed)
		out[bucket] += float64(b.found)
		counts[bucket]++
	}
	for i := range out {
		if counts[i] > 0 {
			out[i] /= float64(counts[i]) * float64(steamapi.MaxSummariesPerCall)
		}
	}
	return out
}

// sortSnapshot puts users and games in ID order so crawled snapshots are
// directly comparable to ground truth.
func sortSnapshot(snap *dataset.Snapshot) {
	sort.Slice(snap.Users, func(a, b int) bool { return snap.Users[a].SteamID < snap.Users[b].SteamID })
	sort.Slice(snap.Games, func(a, b int) bool { return snap.Games[a].AppID < snap.Games[b].AppID })
	sort.Slice(snap.Groups, func(a, b int) bool { return snap.Groups[a].GID < snap.Groups[b].GID })
	for i := range snap.Groups {
		m := snap.Groups[i].Members
		sort.Slice(m, func(a, b int) bool { return m[a] < m[b] })
	}
}
