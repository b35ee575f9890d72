package core

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"steamstudy/internal/apiserver"
	"steamstudy/internal/climain"
	"steamstudy/internal/crawler"
	"steamstudy/internal/dataset"
	"steamstudy/internal/simworld"
)

// ServerOptions configure the Steam Web API simulator.
type ServerOptions struct {
	// Addr is the listen address ("127.0.0.1:0" for an ephemeral port).
	Addr string
	// APIKeys lists accepted keys (empty disables auth).
	APIKeys []string
	// RatePerSecond / Burst bound each key's request rate (0 = unlimited).
	RatePerSecond float64
	Burst         int
	// FaultRate injects 500s on this fraction of requests.
	FaultRate float64
	// Faults composes per-endpoint fault injection and outage windows for
	// chaos testing (see apiserver.FaultProfile).
	Faults *apiserver.FaultProfile
}

// APIServer is a running Steam Web API simulator.
type APIServer struct {
	// BaseURL is the root the crawler should target.
	BaseURL string
	srv     *http.Server
	lis     net.Listener
}

// Serve starts the API simulator over the study's universe. Close it with
// Shutdown.
func (s *Study) Serve(opts ServerOptions) (*APIServer, error) {
	if s.universe == nil {
		return nil, fmt.Errorf("steamstudy: serving requires a generated universe")
	}
	return ServeUniverse(s.universe, opts)
}

// ServeUniverse starts the API simulator over any universe.
func ServeUniverse(u *simworld.Universe, opts ServerOptions) (*APIServer, error) {
	if opts.Addr == "" {
		opts.Addr = "127.0.0.1:0"
	}
	handler := apiserver.New(u, apiserver.Config{
		APIKeys:       opts.APIKeys,
		RatePerSecond: opts.RatePerSecond,
		Burst:         opts.Burst,
		FaultRate:     opts.FaultRate,
		Faults:        opts.Faults,
	})
	lis, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("steamstudy: listening on %s: %w", opts.Addr, err)
	}
	// climain.NewHTTPServer: every listener in the repo carries
	// slow-client timeouts, including the embedded simulator.
	srv := climain.NewHTTPServer(handler)
	go srv.Serve(lis)
	return &APIServer{
		BaseURL: "http://" + lis.Addr().String(),
		srv:     srv,
		lis:     lis,
	}, nil
}

// Shutdown stops the server.
func (a *APIServer) Shutdown(ctx context.Context) error {
	return a.srv.Shutdown(ctx)
}

// CrawlOptions configure a crawl through the facade.
type CrawlOptions struct {
	BaseURL string
	APIKey  string
	// RatePerSecond is the crawler's self-imposed budget (§3.1: ~85 % of
	// the server allowance).
	RatePerSecond float64
	Workers       int
	MaxAccounts   int
	// CheckpointPath names a journal directory enabling resumable crawls.
	CheckpointPath string
	// Timeout bounds the whole crawl (0 = none).
	Timeout time.Duration
	// RequestTimeout bounds each HTTP attempt (0 = crawler default).
	RequestTimeout time.Duration
	// MaxBackoff clamps the retry backoff (0 = crawler default).
	MaxBackoff time.Duration
	// BreakerThreshold opens an endpoint's circuit breaker after this many
	// consecutive failures (0 = crawler default; negative disables).
	BreakerThreshold int
	// BreakerCooldown is the open-breaker wait before a half-open probe.
	BreakerCooldown time.Duration
	// DisableAdaptiveThrottle pins the request rate instead of letting the
	// AIMD controller move it under 429/503 pressure.
	DisableAdaptiveThrottle bool
	// Logf receives progress lines.
	Logf func(format string, args ...any)
}

// Crawl runs the paper's §3.1 methodology against a server and returns
// the assembled snapshot.
func Crawl(opts CrawlOptions) (*dataset.Snapshot, error) {
	c := crawler.New(crawler.Config{
		BaseURL:                 opts.BaseURL,
		APIKey:                  opts.APIKey,
		RatePerSecond:           opts.RatePerSecond,
		Workers:                 opts.Workers,
		MaxAccounts:             opts.MaxAccounts,
		CheckpointPath:          opts.CheckpointPath,
		RequestTimeout:          opts.RequestTimeout,
		MaxBackoff:              opts.MaxBackoff,
		BreakerThreshold:        opts.BreakerThreshold,
		BreakerCooldown:         opts.BreakerCooldown,
		DisableAdaptiveThrottle: opts.DisableAdaptiveThrottle,
		Logf:                    opts.Logf,
	})
	ctx := context.Background()
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	return c.Run(ctx)
}

// SaveSnapshot persists a study's snapshot (layout by path: .jsonl,
// .jsonl.gz, or a .d shard directory). Options tune the layout and
// observability (dataset.WithShardRecords, dataset.WithProgress); the
// bytes of a single-file snapshot are identical for any of them.
func (s *Study) SaveSnapshot(path string, opts ...dataset.Option) error {
	return s.snap.Save(path, opts...)
}

// LoadSnapshot reads a snapshot saved by SaveSnapshot or the crawler
// tools and wraps it in a Study. Options observe the decode (for example
// dataset.WithProgress).
func LoadSnapshot(path string, opts ...dataset.Option) (*Study, error) {
	snap, err := dataset.Load(path, opts...)
	if err != nil {
		return nil, err
	}
	return FromSnapshot(snap), nil
}
