// Command steamcrawl runs the paper's §3.1 crawl methodology against a
// server speaking the Steam Web API wire format (see steamapiserver) and
// writes the assembled snapshot.
//
//	steamcrawl -url http://127.0.0.1:8080 -rate 85000 -workers 16 -out crawl.jsonl.gz
//
// The -rate flag is the crawler's voluntary budget; the paper throttled
// to 85 % of the API's allowance.
//
// Fleet mode (N cooperating crawler processes, one shared directory):
//
//	steamcrawl -fleet-dir ./fleet -worker-id w1 -url ...   # run until the space is exhausted
//	steamcrawl -fleet-dir ./fleet -fleet-status            # render the live lease table (read-only)
//	steamcrawl -fleet-dir ./fleet -merge -out crawl.jsonl  # stitch shard journals into one snapshot
//
// Workers lease fixed-size SteamID ranges from a file-based lease table,
// journal each shard under <fleet-dir>/shard-NNNNNN/, heartbeat while
// crawling, and reclaim shards whose owners died. The merged snapshot is
// byte-identical to a solo crawl for any fleet size or kill schedule.
//
// Maintenance modes (no crawl):
//
//	steamcrawl -fsck crawl.jsonl.gz                          # validate a snapshot
//	steamcrawl -fsck crawl.jsonl.gz -repair -checkpoint dir  # rebuild it from the journal
//	steamcrawl -compact -checkpoint dir                      # bound future replay time
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"steamstudy/internal/climain"
	"steamstudy/internal/crawler"
	"steamstudy/internal/dataset"
	"steamstudy/internal/fleet"
	"steamstudy/internal/obs"
	"steamstudy/internal/steamid"
)

func main() {
	app := climain.New("steamcrawl")
	workers := app.WorkersFlag(16, "worker pool width for crawl phases 2-5 (results are identical for any value)")
	var (
		baseURL     = flag.String("url", "http://127.0.0.1:8080", "API base URL")
		key         = flag.String("key", "", "API key")
		rate        = flag.Float64("rate", 5000, "self-imposed requests/second budget (paper: 85% of the allowance)")
		maxUsers    = flag.Int("max", 0, "cap the crawl at this many accounts (0 = exhaustive; ignored in fleet mode)")
		checkpoint  = flag.String("checkpoint", "", "journal directory for resumable crawls")
		reqTimeout  = flag.Duration("timeout", 15*time.Second, "per-request timeout")
		maxBackoff  = flag.Duration("max-backoff", 30*time.Second, "exponential-backoff clamp")
		brThreshold = flag.Int("breaker-threshold", 5, "consecutive failures that open an endpoint's circuit breaker (negative disables)")
		brCooldown  = flag.Duration("breaker-cooldown", 5*time.Second, "open-breaker cooldown before a half-open probe")
		noAdaptive  = flag.Bool("no-adaptive", false, "disable AIMD adaptive throttling and pin the rate")
		progress    = flag.Duration("progress", 30*time.Second, "interval between progress/health lines (negative disables)")
		out         = flag.String("out", "crawl.jsonl.gz", "snapshot output path (.jsonl/.jsonl.gz, or a .d shard directory)")
		fsckPath    = flag.String("fsck", "", "validate this snapshot file against its manifest and the paper's referential schema, then exit (no crawl)")
		repair      = flag.Bool("repair", false, "with -fsck and -checkpoint: rebuild a damaged snapshot from the journal, then re-validate")
		compact     = flag.Bool("compact", false, "seal the -checkpoint journal's replayed segments into a verified base snapshot and exit (no crawl)")

		fleetDir    = flag.String("fleet-dir", "", "fleet coordination directory: run as a fleet worker leasing SteamID-range shards (or the merge source with -merge)")
		workerID    = flag.String("worker-id", "", "fleet worker identity in the lease table (default hostname-pid)")
		fleetStart  = flag.Uint64("fleet-start", steamid.Base, "first SteamID64 of the fleet work space")
		fleetRange  = flag.Uint64("fleet-range", 65536, "SteamID64s per fleet shard")
		fleetTTL    = flag.Duration("fleet-ttl", 30*time.Second, "fleet lease time-to-live; a worker silent this long forfeits its shard")
		fleetPoll   = flag.Duration("fleet-poll", 250*time.Millisecond, "how often an idle fleet worker re-checks the lease table")
		merge       = flag.Bool("merge", false, "with -fleet-dir: stitch the completed fleet's shard journals into one snapshot at -out, then exit (no crawl)")
		collectedAt = flag.Int64("collected-at", 0, "CollectedAt (unix seconds) stamped on the -merge output; keep it fixed for reproducible bytes")
		fleetStatus = flag.Bool("fleet-status", false, "with -fleet-dir: render the live lease table (shard, state, worker, epoch, expiry, found) read-only and exit (no crawl)")
	)
	flag.Parse()
	if !*fleetStatus && !*merge && *fsckPath == "" && !*compact {
		// The crawl and merge modes write -out; die on a typo'd extension
		// before any network or journal work.
		app.MustSnapshotPath("out", *out)
	}

	app.StartAdmin()
	reg := app.Registry()

	if *fleetStatus {
		if *fleetDir == "" {
			log.Fatal("-fleet-status requires -fleet-dir")
		}
		os.Exit(runFleetStatus(*fleetDir))
	}
	if *merge {
		if *fleetDir == "" {
			log.Fatal("-merge requires -fleet-dir")
		}
		os.Exit(runMerge(*fleetDir, *out, *collectedAt, reg))
	}
	if *fsckPath != "" || *compact {
		os.Exit(runMaintenance(*fsckPath, *repair, *compact, *checkpoint, reg))
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "steamcrawl: "+format+"\n", args...)
	}
	crawlCfg := crawler.Config{
		BaseURL:                 *baseURL,
		APIKey:                  *key,
		RatePerSecond:           *rate,
		Workers:                 *workers,
		MaxAccounts:             *maxUsers,
		CheckpointPath:          *checkpoint,
		RequestTimeout:          *reqTimeout,
		MaxBackoff:              *maxBackoff,
		BreakerThreshold:        *brThreshold,
		BreakerCooldown:         *brCooldown,
		DisableAdaptiveThrottle: *noAdaptive,
		ProgressEvery:           *progress,
		Registry:                reg,
		Logf:                    logf,
	}

	// Graceful shutdown: the first SIGINT/SIGTERM cancels the crawl
	// context — in-flight requests finish, the journal is flushed and
	// closed (and in fleet mode the lease released) before the process
	// exits nonzero. A second signal force-quits.
	ctx, cancel := context.WithCancel(context.Background())
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "steamcrawl: %v: finishing in-flight work, flushing journal (signal again to force-quit)\n", s)
		cancel()
		<-sig
		fmt.Fprintln(os.Stderr, "steamcrawl: second signal: exiting immediately")
		os.Exit(130)
	}()

	if *fleetDir != "" {
		os.Exit(runFleetWorker(ctx, *fleetDir, *workerID, fleet.Params{
			StartID:   *fleetStart,
			RangeSize: *fleetRange,
			LeaseTTL:  *fleetTTL,
		}, *fleetPoll, crawlCfg, reg, logf))
	}

	start := time.Now()
	c := crawler.New(crawlCfg)
	snap, err := c.Run(ctx)
	if err != nil {
		if errors.Is(err, context.Canceled) && ctx.Err() != nil {
			log.Printf("interrupted after %v: journal flushed and closed; rerun with the same -checkpoint to resume", time.Since(start).Round(time.Millisecond))
			os.Exit(1)
		}
		log.Fatalf("crawl failed after %v: %v (checkpoint, if enabled, allows resuming)", time.Since(start), err)
	}
	t := snap.Totals()
	m := c.Metrics.Snapshot()
	fmt.Fprintf(os.Stderr,
		"crawl complete in %v: %d users, %d games, %d groups, %d friendships, %d requests (%d rate-limited, %d errors, %d retries, %d breaker opens)\n",
		time.Since(start).Round(time.Millisecond),
		t.Users, t.Games, t.Groups, t.Friendships,
		m.Requests, m.RateLimited, m.Errors, m.Retries, m.BreakerOpens)
	if profile := c.DensityProfile(10); profile != nil {
		fmt.Fprintf(os.Stderr, "ID-space density by decile (§3.1):")
		for _, d := range profile {
			fmt.Fprintf(os.Stderr, " %.0f%%", d*100)
		}
		fmt.Fprintln(os.Stderr)
	}
	if err := snap.Save(*out); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "snapshot written to %s (manifest: %s)\n", *out, dataset.ManifestPath(*out))
}

// runFleetWorker participates in the fleet at dir until the work space is
// exhausted. Interrupts release the lease (the shard journal survives for
// the next owner) and exit nonzero.
func runFleetWorker(ctx context.Context, dir, id string, params fleet.Params, poll time.Duration, crawlCfg crawler.Config, reg *obs.Registry, logf func(string, ...any)) int {
	crawlCfg.MaxAccounts = 0
	stats, err := fleet.RunWorker(ctx, fleet.Config{
		Dir:      dir,
		WorkerID: id,
		Params:   params,
		Crawl:    crawlCfg,
		Poll:     poll,
		Registry: reg,
		Logf:     logf,
	})
	if err != nil {
		if errors.Is(err, context.Canceled) && ctx.Err() != nil {
			logf("interrupted: lease released, journal flushed and closed; restart any worker to resume (%d shards, %d users so far)",
				stats.Shards, stats.Users)
			return 1
		}
		log.Printf("fleet worker failed: %v", err)
		return 1
	}
	logf("fleet worker done: %d shards (%d empty), %d users, %d leases lost",
		stats.Shards, stats.EmptyShards, stats.Users, stats.LeasesLost)
	logf("merge with: steamcrawl -fleet-dir %s -merge -out <snapshot>", dir)
	return 0
}

// runFleetStatus renders the live lease table, read-only: the snapshot is
// taken under the table flock (a single file read — Status never writes),
// and all formatting happens after the lock and the table handle are
// gone, so a slow terminal cannot stall the fleet's workers.
func runFleetStatus(dir string) int {
	table, err := fleet.Load(dir, nil)
	if err != nil {
		log.Print(err)
		return 1
	}
	s, serr := table.Status()
	table.Close()
	if serr != nil {
		log.Print(serr)
		return 1
	}

	fmt.Printf("fleet %s\n", dir)
	fmt.Printf("  geometry: start %d, %d IDs/shard, lease TTL %v, empty-shard limit %d\n",
		s.StartID, s.RangeSize, s.LeaseTTL, s.EmptyShardLimit)
	fmt.Printf("  shards: %d issued (%d done, %d leased, %d open), %d workers alive\n",
		s.NextShard, s.Done, s.Leased, s.Open, s.WorkersAlive)
	switch {
	case s.Exhausted:
		fmt.Println("  state: exhausted — safe to merge")
	case s.FrontierClosed:
		fmt.Println("  state: frontier closed, shards still outstanding")
	default:
		fmt.Println("  state: frontier open")
	}
	if len(s.Shards) == 0 {
		return 0
	}
	fmt.Printf("\n  %-8s %-7s %-20s %6s %8s %-22s %s\n",
		"SHARD", "STATE", "WORKER", "EPOCH", "FOUND", "EXPIRES", "RANGE")
	for _, sh := range s.Shards {
		expiry := "-"
		if !sh.Expires.IsZero() {
			expiry = sh.Expires.UTC().Format(time.RFC3339)
		}
		worker := sh.Worker
		if worker == "" {
			worker = "-"
		}
		found := fmt.Sprintf("%d", sh.Found)
		if sh.State == "leased" || sh.State == "open" {
			found = "-"
		}
		fmt.Printf("  %-8d %-7s %-20s %6d %8s %-22s [%d,%d)\n",
			sh.Shard, sh.State, worker, sh.Epoch, found, expiry, sh.Start, sh.End)
	}
	return 0
}

// runMerge stitches a completed fleet's shard journals into one
// manifest-verified snapshot and proves it fsck-clean.
func runMerge(dir, out string, collectedAt int64, reg *obs.Registry) int {
	snap, err := fleet.Merge(dir, collectedAt)
	if err != nil {
		log.Print(err)
		return 1
	}
	if err := snap.Save(out); err != nil {
		log.Print(err)
		return 1
	}
	im := &dataset.IntegrityMetrics{}
	im.Register(reg)
	rep, err := dataset.FsckFile(out, im)
	if err != nil {
		log.Print(err)
		return 1
	}
	if !rep.Clean() {
		fmt.Print(rep.String())
		log.Printf("merged snapshot fails fsck")
		return 1
	}
	t := snap.Totals()
	sha := ""
	if man, err := dataset.ReadManifest(out); err == nil && man != nil {
		sha = man.FileSHA256
	}
	fmt.Fprintf(os.Stderr, "merged snapshot written to %s: %d users, %d games, %d groups (fsck clean, sha256 %s)\n",
		out, t.Users, t.Games, t.Groups, sha)
	return 0
}

// runMaintenance handles the no-crawl modes: -fsck (validate a snapshot,
// optionally repairing it from the journal) and -compact (seal the
// journal's replayed prefix into a base snapshot). Returns the exit code:
// zero only if every requested operation left a clean state.
func runMaintenance(fsckPath string, repair, compact bool, checkpoint string, reg *obs.Registry) int {
	im := &dataset.IntegrityMetrics{}
	im.Register(reg)
	code := 0
	if fsckPath != "" {
		// Decode progress streams into the registry as it happens, so an
		// -admin watcher sees a multi-gigabyte fsck advance section by
		// section instead of staring at a silent process.
		progress := func(section string, records int) {
			reg.Gauge("fsck_loaded_" + section).Set(float64(records))
		}
		rep, err := dataset.FsckFile(fsckPath, im, dataset.WithProgress(progress))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(rep.String())
		if !rep.Clean() {
			if repair && checkpoint != "" {
				fmt.Fprintf(os.Stderr, "steamcrawl: repairing %s from journal %s\n", fsckPath, checkpoint)
				rep2, err := crawler.RepairSnapshot(checkpoint, fsckPath, im)
				if err != nil {
					log.Fatal(err)
				}
				fmt.Print(rep2.String())
				if !rep2.Clean() {
					code = 1
				}
			} else {
				if repair {
					fmt.Fprintln(os.Stderr, "steamcrawl: -repair needs -checkpoint to name the journal")
				}
				code = 1
			}
		}
	}
	if compact {
		if checkpoint == "" {
			log.Fatal("-compact requires -checkpoint")
		}
		if err := crawler.CompactJournal(checkpoint); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "steamcrawl: journal %s compacted\n", checkpoint)
	}
	return code
}
