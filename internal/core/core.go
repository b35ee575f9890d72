// Package core orchestrates the "Condensing Steam" (IMC 2016)
// reproduction end to end — it is the paper's primary contribution as a
// library: generate (or load) a snapshot, run any of the paper's
// experiments, render the results. The root steamstudy package re-exports
// this API:
//
//	universe generation  — a synthetic Steam population calibrated to the
//	                       paper's published statistics (internal/simworld)
//	serving and crawling — a Steam Web API simulator plus the paper's §3.1
//	                       crawl methodology (internal/apiserver, crawler)
//	analysis             — every table and figure of the evaluation
//	                       (internal/analysis, heavytail, stats, graph)
//	reporting            — text/CSV rendering (internal/report)
//
// Typical use (through the root package):
//
//	study, err := steamstudy.New(steamstudy.Options{Users: 100000, Seed: 1})
//	...
//	err = study.Run(os.Stdout, "T3")   // print Table 3
//	err = study.RunAll(os.Stdout)      // print the whole paper
package core

import (
	"bytes"
	"fmt"
	"io"
	"sort"

	"steamstudy/internal/analysis"
	"steamstudy/internal/dataset"
	"steamstudy/internal/obs"
	"steamstudy/internal/par"
	"steamstudy/internal/report"
	"steamstudy/internal/simworld"
)

// Options configure a study.
type Options struct {
	// Users is the synthetic population size. The paper measured 108.7 M
	// accounts; all reproduced statistics are scale-free (percentiles,
	// shares, correlation coefficients), so smaller populations reproduce
	// the same shapes. Default 100,000.
	Users int
	// Seed makes the whole study deterministic. Default 1.
	Seed int64
	// CatalogSize is the number of storefront products (paper: 6,156).
	CatalogSize int
	// WeekSampleFrac is the Fig 12 sample fraction (paper: 0.5 %).
	WeekSampleFrac float64
	// Years are the friendship-evolution slices for Table 4 and Fig 2.
	Years []int
	// SkipSecondSnapshot disables the §8 second-snapshot experiments.
	SkipSecondSnapshot bool
	// Workers bounds both the generation and the analysis worker pools:
	// universe generation chunks each stage's index space onto the pool
	// (see simworld.Config.Workers), RunAll renders independent
	// experiments concurrently, and the heavy statistical loops (the
	// Table 4 classifications, the xmin scans beneath them) fan out on
	// the same knob. 0 (the default) means one worker per CPU; 1 forces
	// the fully serial path. Output is byte-identical for every value —
	// experiments render into per-slot buffers merged in the paper's
	// order, and no random stream is ever shared across goroutines (see
	// internal/par).
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Users == 0 {
		o.Users = 100000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.CatalogSize == 0 {
		o.CatalogSize = 6156
	}
	if o.WeekSampleFrac == 0 {
		o.WeekSampleFrac = 0.005
	}
	if len(o.Years) == 0 {
		o.Years = []int{2009, 2010, 2011, 2012, 2013}
	}
	return o
}

// Study holds a generated universe with its extracted snapshot(s), ready
// to run experiments.
type Study struct {
	opts     Options
	universe *simworld.Universe
	snap     *dataset.Snapshot
	vectors  *analysis.Vectors
	vectors2 *analysis.Vectors
	obs      *obs.Registry
}

// New generates the universe(s) and prepares the attribute vectors.
func New(opts Options) (*Study, error) {
	opts = opts.withDefaults()
	cfg := simworld.DefaultConfig(opts.Users)
	cfg.CatalogSize = opts.CatalogSize
	cfg.Workers = opts.Workers
	u, err := simworld.Generate(cfg, opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("steamstudy: generating universe: %w", err)
	}
	s := &Study{opts: opts, universe: u}
	s.snap = dataset.FromUniverse(u)
	s.vectors = analysis.Extract(s.snap)
	if !opts.SkipSecondSnapshot {
		s.vectors2 = analysis.Extract(dataset.FromUniverse(simworld.Evolve(u)))
	}
	return s, nil
}

// FromSnapshot builds a study over an existing snapshot (for example, one
// produced by the crawler or loaded from disk). Experiments requiring the
// generator (Fig 12's week series, the §8 second snapshot) are skipped.
func FromSnapshot(snap *dataset.Snapshot) *Study {
	return &Study{
		opts:    Options{}.withDefaults(),
		snap:    snap,
		vectors: analysis.Extract(snap),
	}
}

// Snapshot returns the study's first snapshot.
func (s *Study) Snapshot() *dataset.Snapshot { return s.snap }

// Vectors returns the per-user attribute vectors extracted from the
// study's snapshot. They are built once at construction and never
// mutated afterwards, so concurrent readers (the query service renders
// experiments from many HTTP handlers at once) need no locking.
func (s *Study) Vectors() *analysis.Vectors { return s.vectors }

// HasGenerator reports whether the study owns a generated universe —
// the prerequisite for NeedsGenerator experiments. Studies built by
// FromSnapshot/LoadSnapshot over crawled data return false.
func (s *Study) HasGenerator() bool { return s.universe != nil }

// HasSecondSnapshot reports whether the §8 second-snapshot vectors are
// available (generated and not disabled by SkipSecondSnapshot).
func (s *Study) HasSecondSnapshot() bool { return s.vectors2 != nil }

// CanRun reports whether Run(w, id) would execute the experiment rather
// than fail its availability guard. Unknown IDs return false. It lets a
// caller (the query service's experiment index, a CLI listing) separate
// "available here" from "exists in the registry" without rendering.
func (s *Study) CanRun(id string) bool {
	e := lookup(id)
	if e == nil {
		return false
	}
	if e.NeedsGenerator && (s.universe == nil || (id == "E8" && s.vectors2 == nil)) {
		return false
	}
	return true
}

// SetWorkers adjusts the analysis worker-pool bound after construction —
// the knob for studies built over loaded or crawled snapshots, which
// never pass through New's Options. 0 means one worker per CPU, 1 forces
// the serial path. It must not be called concurrently with RunAll/Run.
func (s *Study) SetWorkers(n int) { s.opts.Workers = n }

// SetObserver attaches a metrics registry: Run and RunAll then record a
// per-experiment render span (experiment_render:<ID>) into it, so a
// steamstudy admin listener shows which experiments are rendering, done,
// and how long each took. Observation never touches the rendered output —
// RunAll stays byte-identical with or without a registry. Must not be
// called concurrently with RunAll/Run.
func (s *Study) SetObserver(r *obs.Registry) { s.obs = r }

// Headline carries the study's aggregate counts (§1's bullet numbers,
// scaled), in plain types.
type Headline struct {
	Users           int
	Games           int
	Groups          int
	Friendships     int
	Memberships     int
	OwnedGames      int64
	PlaytimeYears   float64
	MarketValueUSD  float64
	SecondSnapshots bool
}

// Headline computes the aggregate counts.
func (s *Study) Headline() Headline {
	t := s.snap.Totals()
	return Headline{
		Users:           t.Users,
		Games:           t.Games,
		Groups:          t.Groups,
		Friendships:     t.Friendships,
		Memberships:     t.Memberships,
		OwnedGames:      t.OwnedGames,
		PlaytimeYears:   t.PlaytimeYrs,
		MarketValueUSD:  t.ValueUSD,
		SecondSnapshots: s.vectors2 != nil,
	}
}

// Experiment describes one runnable reproduction target.
type Experiment struct {
	ID    string
	Title string
	// Run renders the experiment to w.
	Run func(s *Study, w io.Writer) error
	// NeedsGenerator marks experiments unavailable on crawled snapshots.
	NeedsGenerator bool
}

// experiments is the registry, keyed by the DESIGN.md experiment index.
var experiments = []Experiment{
	{ID: "T1", Title: "Table 1: reported-country breakdown", Run: func(s *Study, w io.Writer) error {
		return report.Table1(w, analysis.Table1Countries(s.snap, 10))
	}},
	{ID: "T2", Title: "Table 2: types of the 250 largest groups", Run: func(s *Study, w io.Writer) error {
		return report.Table2(w, analysis.Table2GroupTypes(s.snap, 250))
	}},
	{ID: "T3", Title: "Table 3: attribute percentiles", Run: func(s *Study, w io.Writer) error {
		return report.Table3(w, analysis.Table3Percentiles(s.vectors))
	}},
	{ID: "T4", Title: "Table 4: heavy-tail classification", Run: func(s *Study, w io.Writer) error {
		inputs := analysis.StandardTable4Inputs(s.vectors, s.vectors2, s.opts.Years)
		return report.Table4(w, analysis.Table4Classification(inputs, s.opts.Workers))
	}},
	{ID: "F1", Title: "Figure 1: friendship graph evolution", Run: func(s *Study, w io.Writer) error {
		return report.Figure1Evolution(w, analysis.Figure1Evolution(s.vectors))
	}},
	{ID: "F2", Title: "Figure 2: friend-count distributions", Run: func(s *Study, w io.Writer) error {
		series := analysis.Figure2DegreeDistributions(s.vectors, s.opts.Years)
		return report.Figure2(w, series, analysis.Figure2CapDips(s.vectors))
	}},
	{ID: "F3", Title: "Figure 3: distinct games played by group members", Run: func(s *Study, w io.Writer) error {
		return report.Figure3(w, analysis.Figure3GroupGameDiversity(s.snap, 100))
	}},
	{ID: "F4", Title: "Figure 4: game ownership distribution", Run: func(s *Study, w io.Writer) error {
		return report.Figure4(w, analysis.Figure4Ownership(s.vectors))
	}},
	{ID: "F5", Title: "Figure 5: ownership by genre", Run: func(s *Study, w io.Writer) error {
		return report.Figure5(w, analysis.Figure5GenreOwnership(s.snap))
	}},
	{ID: "F6", Title: "Figure 6: playtime CDFs", Run: func(s *Study, w io.Writer) error {
		return report.Figure6(w, analysis.Figure6PlaytimeCDF(s.vectors))
	}},
	{ID: "F7", Title: "Figure 7: non-zero two-week playtime", Run: func(s *Study, w io.Writer) error {
		return report.Figure7(w, analysis.Figure7NonZeroTwoWeek(s.vectors))
	}},
	{ID: "F8", Title: "Figure 8: account market value", Run: func(s *Study, w io.Writer) error {
		return report.Figure8(w, analysis.Figure8MarketValue(s.vectors))
	}},
	{ID: "F9", Title: "Figure 9: playtime and value by genre", Run: func(s *Study, w io.Writer) error {
		return report.Figure9(w, analysis.Figure9GenreExpenditure(s.snap))
	}},
	{ID: "F10", Title: "Figure 10: multiplayer playtime share", Run: func(s *Study, w io.Writer) error {
		return report.Figure10(w, analysis.Figure10MultiplayerShare(s.snap))
	}},
	{ID: "F11", Title: "Figure 11 / §7: correlations and homophily", Run: func(s *Study, w io.Writer) error {
		if err := renderSection7(s, w); err != nil {
			return err
		}
		own, nbr := analysis.HomophilyScatter(s.vectors, 900)
		return report.Figure11(w, analysis.Figure11Homophily(s.vectors), own, nbr)
	}},
	{ID: "F12", Title: "Figure 12: a week of daily playtime", NeedsGenerator: true, Run: func(s *Study, w io.Writer) error {
		sample := s.universe.SampleWeekUsers(s.opts.WeekSampleFrac)
		res := analysis.Figure12WeekMatrix(sample, s.universe.WeekSeries)
		return report.Figure12(w, res)
	}},
	{ID: "E4", Title: "§4.1: friendship locality", Run: func(s *Study, w io.Writer) error {
		loc := analysis.Section4Locality(s.vectors)
		_, err := fmt.Fprintf(w,
			"§4.1 — locality: %.2f%% of reported-country friendships are international (paper: 30.34%%); %.2f%% of reported-city friendships span cities (paper: 79.84%%)\n",
			loc.InternationalFrac*100, loc.CrossCityFrac*100)
		return err
	}},
	{ID: "E8", Title: "§8: second-snapshot evolution", NeedsGenerator: true, Run: func(s *Study, w io.Writer) error {
		cmp := analysis.Section8Evolution(s.vectors, s.vectors2)
		_, err := fmt.Fprintf(w, "§8 — evolution over ~1 year:\n"+
			"  top library:  %d -> %d games (x%.2f; paper: 2,148 -> 3,919, x1.82)\n"+
			"  80th pct:     %.0f -> %.0f games (x%.2f; paper: 10 -> 15, x1.50)\n"+
			"  top value:    $%.0f -> $%.0f (x%.2f; paper: $24,315 -> $46,634, x1.92)\n"+
			"  80th pct:     $%.2f -> $%.2f (x%.2f; paper: $150.88 -> $224.93, x1.49)\n",
			cmp.MaxGamesFirst, cmp.MaxGamesSecond, cmp.TailGamesGrowth,
			cmp.P80GamesFirst, cmp.P80GamesSecond, cmp.P80GamesGrowth,
			cmp.MaxValueFirst, cmp.MaxValueSecond, cmp.TailValueGrowth,
			cmp.P80ValueFirst, cmp.P80ValueSecond, cmp.P80ValueGrowth)
		return err
	}},
	{ID: "E9", Title: "§9: achievements", Run: func(s *Study, w io.Writer) error {
		return renderSection9(s, w)
	}},
	{ID: "E3", Title: "§3.2: anomalous-account audit", Run: func(s *Study, w io.Writer) error {
		audit := analysis.Section3Anomalies(s.vectors, 5)
		fmt.Fprintf(w, "§3.2 — accounts flagged for manual validation (%d total):\n", audit.Total())
		fmt.Fprintf(w, "  big libraries never played: %d (paper found 29 with >=500 games)\n",
			len(audit.BigLibraryNeverPlayed))
		fmt.Fprintf(w, "  near-max two-week idlers:  %d (paper: 0.01%% of users)\n",
			len(audit.NearMaxTwoWeek))
		fmt.Fprintf(w, "  pinned at a friend cap:    %d\n", len(audit.CapPinnedFriends))
		fmt.Fprintf(w, "  largest collectors (paper's top owner had played 34.5%% of a 90.3%%-complete library):\n")
		for _, a := range audit.TopCollectors {
			fmt.Fprintf(w, "    %d: %s\n", a.SteamID, a.Detail)
		}
		return nil
	}},
	{ID: "E2", Title: "§2.2: small-world structure and crawl-sampling bias", Run: func(s *Study, w io.Writer) error {
		sw := s.vectors.G.SmallWorld(1, 2000, 16)
		fmt.Fprintf(w, "§2.2 — Becker corroboration: small-world friendship graph\n"+
			"  clustering %.4f vs random %.6f (%.0fx); avg path %.2f vs random %.2f; small-world: %v\n"+
			"  giant component holds %.1f%% of connected users (the part prior crawls could reach)\n",
			sw.Clustering, sw.RandomClustering, sw.Clustering/maxf(sw.RandomClustering, 1e-12),
			sw.AvgPathLength, sw.RandomPathLength, sw.IsSmallWorld(),
			sw.LargestComponentShare*100)
		snow := analysis.SnowballSample(s.snap, 10, 0)
		bias := analysis.SamplingBias(s.snap, snow)
		_, err := fmt.Fprintf(w, "§2.2 — sampling bias of a snowball crawl (the paper's argument for the exhaustive sweep):\n"+
			"  snowball reached %d of %d accounts (%.1f%% coverage)\n"+
			"  mean friends: %.2f exhaustive vs %.2f snowball; medians %.0f vs %.0f\n"+
			"  %.1f%% of accounts have no friends and are invisible to any snowball crawl\n",
			bias.SnowballUsers, bias.ExhaustiveUsers, bias.Coverage*100,
			bias.ExhaustiveMeanFriends, bias.SnowballMeanFriends,
			bias.ExhaustiveMedianFriends, bias.SnowballMedianFriends,
			bias.ZeroFriendFracExhaustive*100)
		return err
	}},
	{ID: "E9F", Title: "§9 future work: per-player achievement hunters", NeedsGenerator: true, Run: func(s *Study, w io.Writer) error {
		all, hunters := s.universe.PlayerCompletionRates(0.05)
		res := analysis.HunterSeparationFromRates(all, hunters)
		_, err := fmt.Fprintf(w, "§9 future work — per-player completion (the measurement the paper lacked):\n"+
			"  %d (player, game) observations: median %.0f%%, mean %.0f%% (mean > median: hunters skew the average, as §9 hypothesized)\n"+
			"  near-complete (>=90%%) observations: %.2f%% overall vs %.2f%% among flagged hunters (hunter mean %.0f%%)\n",
			res.Pairs, res.MedianPct, res.MeanPct,
			res.NearCompleteFrac*100, res.HunterNearCompleteFrac*100, res.HunterMeanPct)
		return err
	}},
	{ID: "E10", Title: "§10.2: game-addiction cutoffs", Run: func(s *Study, w io.Writer) error {
		res := analysis.Section10Addiction(s.vectors)
		_, err := fmt.Fprintf(w, "§10.2 — where would an addiction cutoff sit?\n"+
			"  top 1%% of users average %.1f h/day over the fortnight (paper: >5 h/day)\n"+
			"  top 1%% of owners hold %.0f games (paper: hundreds)\n"+
			"  top 1%% of owners' libraries are worth $%.0f (paper: thousands of dollars)\n"+
			"  users averaging >5 h/day: %d (%.2f%%; at Steam scale, the paper's \"over a million gamers\")\n"+
			"  1%% of this population: %d accounts\n",
			res.Top1PctDailyHours, res.Top1PctGames, res.Top1PctValueUSD,
			res.Over5HoursDaily, res.Over5HoursDailyFrac*100, res.PopulationAtOnePct)
		return err
	}},
}

func renderSection7(s *Study, w io.Writer) error {
	fmt.Fprintln(w, "§7 — pairwise correlations over game owners"+
		" (paper: .34, .28, .21, .09, .17)")
	rows := analysis.Section7Correlations(s.vectors)
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{r.Pair, fmt.Sprintf("%.3f", r.Rho), r.Strength})
	}
	return report.Table(w, []string{"Pair", "rho", "Strength"}, out)
}

func renderSection9(s *Study, w io.Writer) error {
	res := analysis.Section9Achievements(s.snap)
	fmt.Fprintf(w, "§9 — achievements:\n"+
		"  offered: mode %.0f, median %.0f, mean %.1f, max %d (paper: 12 / 24 / 33.1 / 1629)\n"+
		"  playtime correlation: all %.2f, 1-90 %.2f, >90 %.2f (paper: 0.16 / 0.53 / -0.02)\n"+
		"  completion single-player: mode %.0f%%, median %.0f%%, mean %.0f%% (paper: 5 / 11 / 15)\n"+
		"  completion multiplayer:   mode %.0f%%, median %.0f%%, mean %.0f%% (paper: 5 / 12 / 14)\n",
		res.OfferedMode, res.OfferedMedian, res.OfferedMean, res.OfferedMax,
		res.RhoAll, res.Rho1to90, res.RhoOver90,
		res.SinglePlayer.ModePct, res.SinglePlayer.MedianPct, res.SinglePlayer.MeanPct,
		res.Multiplayer.ModePct, res.Multiplayer.MedianPct, res.Multiplayer.MeanPct)
	out := make([][]string, 0, len(res.ByGenre))
	for _, g := range res.ByGenre {
		out = append(out, []string{
			g.Genre, fmt.Sprintf("%.1f%%", g.AvgPct),
			fmt.Sprintf("%.1f", g.AvgOffered), fmt.Sprint(g.Games),
		})
	}
	fmt.Fprintln(w, "  completion by genre (paper: Adventure 19% highest, Strategy 11% low):")
	return report.Table(w, []string{"Genre", "Avg completion", "Avg offered", "Games"}, out)
}

// Experiments lists the registry in ID order.
func Experiments() []Experiment {
	out := append([]Experiment(nil), experiments...)
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Run executes one experiment by ID.
func (s *Study) Run(w io.Writer, id string) error {
	for _, e := range experiments {
		if e.ID != id {
			continue
		}
		if e.NeedsGenerator && (s.universe == nil || (id == "E8" && s.vectors2 == nil)) {
			return fmt.Errorf("steamstudy: experiment %s needs a generated universe", id)
		}
		sp := s.obs.Span("experiment_render:" + id)
		sp.Start()
		defer sp.End()
		return e.Run(s, w)
	}
	return fmt.Errorf("steamstudy: unknown experiment %q", id)
}

// RunAll executes every available experiment in the paper's order. The
// experiments are pure read-only functions of the study, so they render
// concurrently on the worker pool (Options.Workers), each into its own
// buffer; the buffers are then written in the paper's order, so the
// output is byte-identical to a serial run for any worker count.
func (s *Study) RunAll(w io.Writer) error {
	order := []string{
		"T1", "E3", "E2", "F1", "F2", "E4", "T2", "F3", "F4", "F5", "F6", "F7",
		"F8", "F9", "F10", "F11", "E8", "F12", "E9", "E9F", "T3", "E10", "T4",
	}
	exps := make([]*Experiment, len(order))
	for i, id := range order {
		if exps[i] = lookup(id); exps[i] == nil {
			return fmt.Errorf("steamstudy: registry inconsistency: %q", id)
		}
	}
	type slot struct {
		buf bytes.Buffer
		err error
	}
	slots := make([]slot, len(order))
	par.For(s.opts.Workers, len(order), func(i int) {
		e, sl := exps[i], &slots[i]
		if e.NeedsGenerator && s.universe == nil {
			fmt.Fprintf(&sl.buf, "\n== %s — %s: skipped (needs generated universe)\n", e.ID, e.Title)
			return
		}
		if e.ID == "E8" && s.vectors2 == nil {
			fmt.Fprintf(&sl.buf, "\n== %s — %s: skipped (second snapshot disabled)\n", e.ID, e.Title)
			return
		}
		fmt.Fprintf(&sl.buf, "\n== %s — %s\n\n", e.ID, e.Title)
		sp := s.obs.Span("experiment_render:" + e.ID)
		sp.Start()
		sl.err = e.Run(s, &sl.buf)
		sp.End()
	})
	for i := range slots {
		if _, err := w.Write(slots[i].buf.Bytes()); err != nil {
			return err
		}
		if slots[i].err != nil {
			return fmt.Errorf("steamstudy: experiment %s: %w", order[i], slots[i].err)
		}
	}
	return nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func lookup(id string) *Experiment {
	for i := range experiments {
		if experiments[i].ID == id {
			return &experiments[i]
		}
	}
	return nil
}
