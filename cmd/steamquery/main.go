// Command steamquery serves the read-side /v1 query API over a snapshot
// file produced by steamgen or steamcrawl: every table and figure of the
// paper as a stable JSON (or text/plain) resource, plus ad-hoc
// percentile, genre, top-K and per-user lookups, behind a collapsing
// result cache keyed by the snapshot's manifest checksum.
//
//	steamquery -snapshot steam.jsonl.gz -addr 127.0.0.1:8090
//	curl http://127.0.0.1:8090/v1/snapshot
//
// Publishing a new snapshot is: write it over the -snapshot path
// (dataset.Save is atomic), then `kill -HUP` the process or POST
// /v1/admin/reload. In-flight requests finish against the snapshot they
// started with; the result cache swaps with the snapshot, which is the
// whole invalidation story.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"steamstudy/internal/climain"
	"steamstudy/internal/query"
)

func main() {
	app := climain.New("steamquery")
	workers := app.WorkersFlag(0, "worker pool size for analysis (0 = one per CPU, 1 = serial); responses are identical for any value")
	var (
		snapshot    = flag.String("snapshot", "", "snapshot to serve (.jsonl/.jsonl.gz, or a .d shard directory)")
		addr        = flag.String("addr", "127.0.0.1:8090", "listen address for the /v1 API")
		cacheN      = flag.Int("cache", 0, "result cache capacity in entries (0 = default, negative = unbounded)")
		lazy        = flag.Bool("lazy", false, "start serving (503s) before the first snapshot load finishes instead of load-or-die")
		maxInflight = flag.Int("max-inflight", 0, "admission control: max concurrently served data-route requests (0 = default 256, negative = unlimited)")
		queueWait   = flag.Duration("queue-wait", 0, "admission control: max FIFO wait for a slot before shedding 503 + Retry-After (0 = default 100ms, negative = shed immediately)")
		routeTO     = flag.Duration("route-timeout", 0, "per-request deadline budget; renderer routes get 4x (0 = default 5s, negative = none)")
		warmKeys    = flag.Int("warm-keys", 0, "hottest cache keys replayed into the new state on reload (0 = default 64, negative = no warming)")
	)
	flag.Parse()
	app.MustSnapshotPath("snapshot", *snapshot)

	cfg := query.Config{
		SnapshotPath: *snapshot,
		Workers:      *workers,
		CacheEntries: *cacheN,
		Obs:          app.EnsureRegistry(),
		Health:       app.Health(),
		MaxInflight:  *maxInflight,
		QueueWait:    *queueWait,
		RouteTimeout: *routeTO,
		WarmKeys:     *warmKeys,
	}
	var (
		srv *query.Server
		err error
	)
	if *lazy {
		srv = query.New(cfg)
		go func() {
			if err := srv.Reload(); err != nil {
				log.Printf("initial load: %v (serving 503s until a reload succeeds)", err)
			} else {
				log.Printf("snapshot loaded, etag %s", srv.ETag())
			}
		}()
	} else {
		srv, err = query.Open(cfg)
		if err != nil {
			log.Fatal(err)
		}
	}
	app.StartAdmin()

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	hs := climain.NewHTTPServer(srv)
	go func() {
		fmt.Fprintf(os.Stderr, "steamquery: serving /v1 at http://%s (snapshot %s)\n", lis.Addr(), *snapshot)
		if err := hs.Serve(lis); err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()

	// SIGHUP hot-reloads the snapshot; SIGINT/SIGTERM drain and exit.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	for s := range sig {
		if s == syscall.SIGHUP {
			if err := srv.Reload(); err != nil {
				log.Printf("reload: %v (previous snapshot still serving)", err)
			} else {
				log.Printf("reloaded, etag %s", srv.ETag())
			}
			continue
		}
		break
	}
	fmt.Fprintln(os.Stderr, "steamquery: shutting down")
	hs.Shutdown(context.Background())
}
