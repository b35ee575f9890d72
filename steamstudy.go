// Package steamstudy is the public entry point of the "Condensing Steam"
// (IMC 2016) reproduction: a calibrated synthetic Steam universe, a Steam
// Web API simulator, the paper's crawl methodology, the heavy-tail
// classification machinery, and analyses reproducing every table and
// figure of the evaluation. The heavy lifting lives in internal/core and
// the substrate packages under internal/; this package re-exports the
// stable API.
//
//	study, err := steamstudy.New(steamstudy.Options{Users: 100000, Seed: 1})
//	...
//	err = study.Run(os.Stdout, "T3")   // print Table 3
//	err = study.RunAll(os.Stdout)      // print the whole paper
package steamstudy

import (
	"steamstudy/internal/core"
	"steamstudy/internal/dataset"
)

// Options configure a study. See core.Options for field documentation.
type Options = core.Options

// Study holds a generated universe with its extracted snapshot(s), ready
// to run experiments.
type Study = core.Study

// Headline carries the study's aggregate counts (§1's bullet numbers).
type Headline = core.Headline

// Experiment describes one runnable reproduction target.
type Experiment = core.Experiment

// ServerOptions configure the Steam Web API simulator.
type ServerOptions = core.ServerOptions

// APIServer is a running Steam Web API simulator.
type APIServer = core.APIServer

// CrawlOptions configure a crawl through the facade.
type CrawlOptions = core.CrawlOptions

// New generates the universe(s) and prepares the attribute vectors.
func New(opts Options) (*Study, error) { return core.New(opts) }

// FromSnapshot builds a study over an existing snapshot (crawled or
// loaded from disk). Generator-bound experiments are skipped.
func FromSnapshot(snap *dataset.Snapshot) *Study { return core.FromSnapshot(snap) }

// LoadSnapshot reads a snapshot saved by SaveSnapshot or the crawler
// tools and wraps it in a Study. Options observe the snapshot decode (for
// example dataset.WithProgress); the decoded study is identical for any.
func LoadSnapshot(path string, opts ...dataset.Option) (*Study, error) {
	return core.LoadSnapshot(path, opts...)
}

// Experiments lists the experiment registry in ID order.
func Experiments() []Experiment { return core.Experiments() }

// Crawl runs the paper's §3.1 methodology against a server speaking the
// Steam Web API wire format and returns the assembled snapshot.
func Crawl(opts CrawlOptions) (*dataset.Snapshot, error) { return core.Crawl(opts) }

// ServeUniverse starts the API simulator over a generated universe (see
// Study.Serve for the common path). Study also provides SaveSnapshot and
// ExportCSV (every data series as CSV for external plotting).
var ServeUniverse = core.ServeUniverse

// SweepStat is one headline statistic measured across generation seeds.
type SweepStat = core.SweepStat

// RobustnessSweep regenerates the universe under several seeds and
// measures the headline statistics each time — the seed-analog of the
// paper's §8 "is this an artifact of when we measured?" check.
func RobustnessSweep(opts Options, seeds []int64) ([]SweepStat, error) {
	return core.RobustnessSweep(opts, seeds)
}

// RenderSweep prints a robustness sweep as a table.
var RenderSweep = core.RenderSweep

// StreamTable4 renders the Table 4 classification directly off a
// snapshot file or shard directory without loading the snapshot — the
// paper-scale path (see core.StreamTable4).
var StreamTable4 = core.StreamTable4
