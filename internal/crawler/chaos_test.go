package crawler

import (
	"context"
	"reflect"
	"testing"
	"time"

	"steamstudy/internal/apiserver"
)

// chaosProfile is the aggressive everything-at-once fault mix: roughly one
// request in five is sabotaged, and the whole service flaps down for a
// dozen requests every four hundred. Retry-After is advertised as zero
// seconds so the test spends its time crawling, not sleeping.
func chaosProfile(seed int64) *apiserver.FaultProfile {
	return &apiserver.FaultProfile{
		Seed: seed,
		Default: apiserver.FaultSpec{
			Error500:      0.04,
			Unavail503:    0.03,
			ConnReset:     0.03,
			Stall:         0.02,
			Truncate:      0.03,
			MalformedJSON: 0.03,
			WrongJSON:     0.03,
			RetryAfter:    time.Millisecond, // rounds down to "Retry-After: 0"
			StallFor:      20 * time.Millisecond,
		},
		OutageEvery:      400,
		OutageLen:        12,
		OutageRetryAfter: time.Millisecond,
	}
}

// chaosCrawlerConfig tunes the resilience machinery for test speed: tight
// backoffs, a fast breaker, and a deep retry budget to ride out the fault
// mix.
func chaosCrawlerConfig(base, journalDir string) Config {
	return Config{
		BaseURL:          base,
		Workers:          4,
		MaxRetries:       14,
		RetryBackoff:     time.Millisecond,
		MaxBackoff:       20 * time.Millisecond,
		RequestTimeout:   5 * time.Second,
		BreakerThreshold: 5,
		BreakerCooldown:  10 * time.Millisecond,
		CheckpointPath:   journalDir,
	}
}

// TestChaosCrawlWithRestartsMatchesCleanCrawl is the end-to-end acceptance
// test for the resilience layer: a crawl against a server injecting every
// fault class at once, killed and restarted twice mid-flight, must produce
// a snapshot identical to a fault-free crawl — no user lost, none
// duplicated, every later-phase record intact.
func TestChaosCrawlWithRestartsMatchesCleanCrawl(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e is slow")
	}
	clean := runCrawl(t, Config{BaseURL: startServer(t, apiserver.Config{}).URL, Workers: 8})

	ts := startServer(t, apiserver.Config{Faults: chaosProfile(1234)})
	dir := t.TempDir()

	// Two simulated process deaths: each run gets a short deadline (the
	// SIGKILL stand-in), leaving a partial journal for the next run.
	var restarts int
	for i := 0; i < 2; i++ {
		cfg := chaosCrawlerConfig(ts.URL, dir)
		cfg.RatePerSecond = 500 // slow enough that the kill lands mid-crawl
		interrupted := New(cfg)
		ctx, cancel := context.WithTimeout(context.Background(), 700*time.Millisecond)
		_, err := interrupted.Run(ctx)
		cancel()
		if err != nil {
			restarts++
		}
	}
	if restarts < 2 {
		t.Fatalf("only %d of 2 interruptions landed mid-crawl; deadlines too generous", restarts)
	}

	// The survivor resumes from the journal and finishes.
	final := New(chaosCrawlerConfig(ts.URL, dir))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	snap, err := final.Run(ctx)
	if err != nil {
		t.Fatalf("chaos crawl failed: %v\nmetrics: %+v", err, final.Metrics.Snapshot())
	}

	// Zero lost, zero duplicated.
	seen := map[uint64]bool{}
	for i := range snap.Users {
		if seen[snap.Users[i].SteamID] {
			t.Fatalf("user %d appears twice in the chaos snapshot", snap.Users[i].SteamID)
		}
		seen[snap.Users[i].SteamID] = true
	}
	// Byte-for-byte identical to the fault-free crawl, timestamp aside.
	snap.CollectedAt, clean.CollectedAt = 0, 0
	if !reflect.DeepEqual(snap, clean) {
		t.Fatalf("chaos snapshot diverges from clean crawl: %d/%d users, %d/%d games, %d/%d groups",
			len(snap.Users), len(clean.Users), len(snap.Games), len(clean.Games),
			len(snap.Groups), len(clean.Groups))
	}
	if rep := snap.Fsck(); !rep.Clean() {
		t.Fatal(rep)
	}
	if final.Metrics.Errors.Load() == 0 {
		t.Fatal("chaos server injected no observable faults; test misconfigured")
	}
}

// TestChaosBreakerOpensDuringOutageAndRecovers drives the crawler into a
// scheduled outage long enough to trip the circuit breaker, then verifies
// the breaker's full lifecycle through metrics: it opened, probed
// half-open, and closed again — and the crawl still finished.
func TestChaosBreakerOpensDuringOutageAndRecovers(t *testing.T) {
	ts := startServer(t, apiserver.Config{Faults: &apiserver.FaultProfile{
		Seed:             7,
		OutageEvery:      25,
		OutageLen:        40, // far past the breaker threshold
		OutageRetryAfter: time.Millisecond,
	}})
	c := New(Config{
		BaseURL:          ts.URL,
		Workers:          2,
		MaxAccounts:      40,
		MaxRetries:       6,
		RetryBackoff:     time.Millisecond,
		MaxBackoff:       10 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  10 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	snap, err := c.Run(ctx)
	if err != nil {
		t.Fatalf("crawl through outages failed: %v\nmetrics: %+v", err, c.Metrics.Snapshot())
	}
	if len(snap.Users) != 40 {
		t.Fatalf("crawled %d users, want 40", len(snap.Users))
	}
	m := c.Metrics.Snapshot()
	if m.BreakerOpens == 0 {
		t.Fatalf("breaker never opened across the outage windows: %+v", m)
	}
	if m.BreakerHalfOpens == 0 {
		t.Fatalf("breaker never admitted a half-open probe: %+v", m)
	}
	if m.BreakerCloses == 0 {
		t.Fatalf("breaker never recovered to closed: %+v", m)
	}
	for class, st := range c.BreakerStates() {
		if st != BreakerClosed {
			t.Fatalf("breaker %q finished the crawl in state %v", class, st)
		}
	}
}

// TestChaosJournalFlushDiscipline asserts the recovery-cost bound: appends
// only ever touch the newest segment, so a crash re-reads at most the
// journal tail, never a sealed segment.
func TestChaosJournalFlushDiscipline(t *testing.T) {
	ts := startServer(t, apiserver.Config{})
	dir := t.TempDir()
	c := New(Config{
		BaseURL:         ts.URL,
		Workers:         4,
		MaxAccounts:     60,
		CheckpointPath:  dir,
		SegmentMaxBytes: 2048, // force several rotations in one run
	})
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if c.Metrics.JournalSegments.Load() < 3 {
		t.Fatalf("only %d segments; rotation never exercised", c.Metrics.JournalSegments.Load())
	}
	// Sealed segments obey the cap (within one record of slop); only the
	// final segment is still growing.
	jr, _, err := openJournal(dir, 2048, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	seg, _ := jr.Position()
	if int64(seg) != c.Metrics.JournalSegments.Load() {
		t.Fatalf("reopen found %d segments, writer reported %d", seg, c.Metrics.JournalSegments.Load())
	}
}
