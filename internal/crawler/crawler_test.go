package crawler

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"steamstudy/internal/apiserver"
	"steamstudy/internal/dataset"
	"steamstudy/internal/simworld"
	"steamstudy/internal/steamid"
)

var (
	crawlOnce sync.Once
	crawlU    *simworld.Universe
)

func crawlUniverse(t *testing.T) *simworld.Universe {
	t.Helper()
	crawlOnce.Do(func() {
		cfg := simworld.DefaultConfig(800)
		cfg.CatalogSize = 120
		crawlU = simworld.MustGenerate(cfg, 55)
	})
	return crawlU
}

func startServer(t *testing.T, cfg apiserver.Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(apiserver.New(crawlUniverse(t), cfg))
	t.Cleanup(ts.Close)
	return ts
}

func runCrawl(t *testing.T, cfg Config) *dataset.Snapshot {
	t.Helper()
	c := New(cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	snap, err := c.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestCrawlMatchesGroundTruth(t *testing.T) {
	u := crawlUniverse(t)
	ts := startServer(t, apiserver.Config{})
	snap := runCrawl(t, Config{BaseURL: ts.URL, Workers: 8})

	truth := dataset.FromUniverse(u)
	if len(snap.Users) != len(truth.Users) {
		t.Fatalf("crawled %d users, truth has %d", len(snap.Users), len(truth.Users))
	}
	if len(snap.Games) != len(truth.Games) {
		t.Fatalf("crawled %d games, truth has %d", len(snap.Games), len(truth.Games))
	}
	// Users are ID-sorted in both; compare field by field.
	for i := range truth.Users {
		tu, cu := &truth.Users[i], &snap.Users[i]
		if tu.SteamID != cu.SteamID || tu.Created != cu.Created ||
			tu.Country != cu.Country || tu.City != cu.City {
			t.Fatalf("user %d profile mismatch: %+v vs %+v", i, tu, cu)
		}
		if len(tu.Friends) != len(cu.Friends) {
			t.Fatalf("user %d friend count %d vs %d", i, len(cu.Friends), len(tu.Friends))
		}
		truthFriends := map[uint64]int64{}
		for _, f := range tu.Friends {
			truthFriends[f.SteamID] = f.Since
		}
		for _, f := range cu.Friends {
			since, ok := truthFriends[f.SteamID]
			if !ok || since != f.Since {
				t.Fatalf("user %d friend %d mismatch", i, f.SteamID)
			}
		}
		if tu.TotalMinutes() != cu.TotalMinutes() || tu.TwoWeekMinutes() != cu.TwoWeekMinutes() {
			t.Fatalf("user %d playtime mismatch", i)
		}
		if len(tu.Groups) != len(cu.Groups) {
			t.Fatalf("user %d group count mismatch", i)
		}
	}
	// Catalog fields survive the storefront round trip.
	for i := range truth.Games {
		tg, cg := &truth.Games[i], &snap.Games[i]
		if tg.AppID != cg.AppID || tg.Name != cg.Name || tg.PriceCents != cg.PriceCents ||
			tg.Multiplayer != cg.Multiplayer || tg.Type != cg.Type {
			t.Fatalf("game %d mismatch: %+v vs %+v", i, tg, cg)
		}
		if !reflect.DeepEqual(tg.Genres, cg.Genres) {
			t.Fatalf("game %d genres %v vs %v", i, cg.Genres, tg.Genres)
		}
		if len(tg.Achievements) != len(cg.Achievements) {
			t.Fatalf("game %d achievements %d vs %d", i, len(cg.Achievements), len(tg.Achievements))
		}
	}
	// Group memberships and the automated categorization.
	if len(snap.Groups) == 0 {
		t.Fatal("no groups crawled")
	}
	truthGroups := map[uint64]*dataset.GroupRecord{}
	for i := range truth.Groups {
		truthGroups[truth.Groups[i].GID] = &truth.Groups[i]
	}
	for i := range snap.Groups {
		cg := &snap.Groups[i]
		tg, ok := truthGroups[cg.GID]
		if !ok {
			t.Fatalf("crawled unknown group %d", cg.GID)
		}
		// The crawler only sees groups with at least one member; member
		// sets must match exactly.
		if len(cg.Members) != len(tg.Members) {
			t.Fatalf("group %d member count %d vs %d", cg.GID, len(cg.Members), len(tg.Members))
		}
		if cg.Type != tg.Type {
			t.Fatalf("group %d categorized %q, truth %q", cg.GID, cg.Type, tg.Type)
		}
	}
	if rep := snap.Fsck(); !rep.Clean() {
		t.Fatal(rep)
	}
}

func TestCrawlSurvivesFaultInjection(t *testing.T) {
	ts := startServer(t, apiserver.Config{FaultRate: 0.05})
	snap := runCrawl(t, Config{
		BaseURL: ts.URL, Workers: 4,
		MaxRetries: 8, RetryBackoff: time.Millisecond,
	})
	truth := dataset.FromUniverse(crawlUniverse(t))
	if len(snap.Users) != len(truth.Users) {
		t.Fatalf("faulty crawl found %d users, want %d", len(snap.Users), len(truth.Users))
	}
}

func TestCrawlRespects429(t *testing.T) {
	// A tight server limit forces 429s; the crawler must back off and
	// still finish.
	ts := startServer(t, apiserver.Config{RatePerSecond: 500, Burst: 50})
	c := New(Config{
		BaseURL: ts.URL, Workers: 4,
		RatePerSecond: 2000, // deliberately above the server's allowance
		MaxAccounts:   60,
		RetryBackoff:  time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	snap, err := c.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Users) != 60 {
		t.Fatalf("crawled %d users, want capped 60", len(snap.Users))
	}
	if c.Metrics.RateLimited.Load() == 0 {
		t.Fatal("server limit never hit; test misconfigured")
	}
}

func TestCrawlAPIKey(t *testing.T) {
	ts := startServer(t, apiserver.Config{APIKeys: []string{"K123"}})
	c := New(Config{BaseURL: ts.URL, APIKey: "K123", MaxAccounts: 10})
	ctx := context.Background()
	if _, err := c.Run(ctx); err != nil {
		t.Fatalf("crawl with valid key failed: %v", err)
	}
	bad := New(Config{BaseURL: ts.URL, APIKey: "WRONG", MaxAccounts: 10, MaxRetries: 1, RetryBackoff: time.Millisecond})
	if _, err := bad.Run(ctx); err == nil {
		t.Fatal("crawl with invalid key succeeded")
	}
}

func TestCrawlCancellation(t *testing.T) {
	ts := startServer(t, apiserver.Config{})
	c := New(Config{BaseURL: ts.URL, RatePerSecond: 50}) // slow enough to cancel mid-flight
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	if _, err := c.Run(ctx); err == nil {
		t.Fatal("cancelled crawl reported success")
	}
}

func TestCheckpointResume(t *testing.T) {
	ts := startServer(t, apiserver.Config{})
	cpDir := filepath.Join(t.TempDir(), "crawl.journal")

	// First run: interrupted partway through phase 2 by a context cancel
	// (the process-death stand-in), leaving a partial journal behind.
	interrupted := New(Config{
		BaseURL: ts.URL, Workers: 4,
		RatePerSecond:  400, // slow enough that the cancel lands mid-phase-2
		CheckpointPath: cpDir,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	if _, err := interrupted.Run(ctx); err == nil {
		t.Fatal("interrupted crawl reported success")
	}

	// Second run resumes: the journaled accounts are not re-fetched, and
	// the final snapshot is complete.
	resumed := New(Config{
		BaseURL: ts.URL, Workers: 4,
		CheckpointPath: cpDir,
	})
	snap, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	truth := dataset.FromUniverse(crawlUniverse(t))
	if len(snap.Users) != len(truth.Users) {
		t.Fatalf("resumed crawl has %d users, want %d", len(snap.Users), len(truth.Users))
	}
	// The resumed run fetched strictly fewer account details than exist,
	// and together the two runs fetched each account exactly once.
	journaled := interrupted.Metrics.UsersDone.Load()
	if journaled == 0 {
		t.Skip("interruption landed before phase 2; nothing to verify")
	}
	if got := resumed.Metrics.UsersDone.Load(); got != int64(len(truth.Users))-journaled {
		t.Fatalf("resume fetched %d users; first run had journaled %d of %d",
			got, journaled, len(truth.Users))
	}
}

func TestCheckpointCorruptMiddleSegmentErrors(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "j")
	jr, _, err := openJournal(dir, 0, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	if err := jr.appendPhaseDone(2); err != nil {
		t.Fatal(err)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	// Garbage in a non-final segment must fail the resume loudly instead
	// of silently dropping everything journaled after it.
	if err := os.WriteFile(filepath.Join(dir, segName(1)), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(2)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openJournal(dir, 0, &Metrics{}); err == nil {
		t.Fatal("corrupt middle segment replayed without error")
	}
}

func TestCategorizeGroup(t *testing.T) {
	cases := map[string]string{
		"Game Server group 3 | A Game Server community on Steam.":           "Game Server",
		"Single Game group 9 | A Single Game community on Steam.":           "Single Game",
		"Gaming Community group 1 | A Gaming Community community on Steam.": "Gaming Community",
		"totally unrelated | nothing here":                                  "",
	}
	for input, want := range cases {
		name, summary, _ := strings.Cut(input, " | ")
		if got := CategorizeGroup(name, summary); got != want {
			t.Fatalf("CategorizeGroup(%q) = %q, want %q", input, got, want)
		}
	}
}

func TestDensityProfileReproducesIDSpaceShape(t *testing.T) {
	// §3.1: valid-account density is low early in the ID range (the
	// simulator uses 45 %) and above 90 % later. The crawler's sweep
	// telemetry must recover that shape.
	ts := startServer(t, apiserver.Config{})
	c := New(Config{BaseURL: ts.URL, Workers: 4})
	if c.DensityProfile(10) != nil {
		t.Fatal("density profile available before the sweep")
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	profile := c.DensityProfile(10)
	if len(profile) != 10 {
		t.Fatalf("profile has %d buckets", len(profile))
	}
	if profile[0] > 0.65 {
		t.Fatalf("early-range density %v, want sparse (<0.65)", profile[0])
	}
	if profile[8] < 0.8 {
		t.Fatalf("late-range density %v, want dense (>0.8)", profile[8])
	}
	for i, d := range profile {
		if d < 0 || d > 1 {
			t.Fatalf("bucket %d density %v out of range", i, d)
		}
	}
}

func TestSnowballCrawlBias(t *testing.T) {
	u := crawlUniverse(t)
	ts := startServer(t, apiserver.Config{})
	c := New(Config{BaseURL: ts.URL, Workers: 4})

	// Seed from the highest-degree account (how real crawls were seeded).
	deg := u.FriendCounts()
	best := 0
	for i, d := range deg {
		if d > deg[best] {
			best = i
		}
	}
	snap, err := c.Snowball(context.Background(), []steamid.ID{u.Users[best].ID}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Users) == 0 || len(snap.Users) >= len(u.Users) {
		t.Fatalf("snowball reached %d of %d accounts", len(snap.Users), len(u.Users))
	}
	// Every reached account is connected (the §2.2 bias): its friend list
	// is nonempty or it is the seed.
	for _, rec := range snap.Users {
		if len(rec.Friends) == 0 && rec.SteamID != uint64(u.Users[best].ID) {
			t.Fatalf("snowball reached friendless account %d", rec.SteamID)
		}
	}
	// Mean degree in the snowball sample exceeds the exhaustive mean.
	var snowSum int
	for _, rec := range snap.Users {
		snowSum += len(rec.Friends)
	}
	var exSum int
	for _, d := range deg {
		exSum += d
	}
	snowMean := float64(snowSum) / float64(len(snap.Users))
	exMean := float64(exSum) / float64(len(u.Users))
	if snowMean <= exMean {
		t.Fatalf("snowball mean degree %.2f not above exhaustive %.2f", snowMean, exMean)
	}
}

func TestSnowballHonorsMaxAndSeedsValidation(t *testing.T) {
	u := crawlUniverse(t)
	ts := startServer(t, apiserver.Config{})
	c := New(Config{BaseURL: ts.URL})
	if _, err := c.Snowball(context.Background(), nil, 0); err == nil {
		t.Fatal("empty seed list accepted")
	}
	deg := u.FriendCounts()
	best := 0
	for i, d := range deg {
		if d > deg[best] {
			best = i
		}
	}
	snap, err := c.Snowball(context.Background(), []steamid.ID{u.Users[best].ID}, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Users) != 25 {
		t.Fatalf("bounded snowball returned %d users", len(snap.Users))
	}
}
