package steamstudy

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index), each reporting
// its headline reproduced statistic as a custom metric, plus
// micro-benchmarks for the statistical hot paths and the crawl.
//
//	go test -bench=. -benchmem

import (
	"context"
	"io"
	"sync"
	"testing"
	"time"

	"steamstudy/internal/analysis"
	"steamstudy/internal/dataset"
	"steamstudy/internal/dists"
	"steamstudy/internal/graph"
	"steamstudy/internal/heavytail"
	"steamstudy/internal/randx"
	"steamstudy/internal/simworld"
	"steamstudy/internal/stats"
)

// benchState is generated once and shared: the benchmarks measure the
// analyses, not universe generation (which has its own benchmark).
var (
	benchOnce sync.Once
	benchU    *simworld.Universe
	benchSnap *dataset.Snapshot
	benchVec  *analysis.Vectors
	benchVec2 *analysis.Vectors
)

func benchFixtures(b *testing.B) (*simworld.Universe, *dataset.Snapshot, *analysis.Vectors) {
	b.Helper()
	benchOnce.Do(func() {
		cfg := simworld.DefaultConfig(50000)
		cfg.CatalogSize = 3000
		benchU = simworld.MustGenerate(cfg, 2016)
		benchSnap = dataset.FromUniverse(benchU)
		benchVec = analysis.Extract(benchSnap)
		benchVec2 = analysis.Extract(dataset.FromUniverse(simworld.Evolve(benchU)))
	})
	return benchU, benchSnap, benchVec
}

// --- Tables ---

func BenchmarkTable1Countries(b *testing.B) {
	_, snap, _ := benchFixtures(b)
	b.ResetTimer()
	var t analysis.CountryTable
	for i := 0; i < b.N; i++ {
		t = analysis.Table1Countries(snap, 10)
	}
	b.ReportMetric(t.Rows[0].Percent, "top-country-%")
}

func BenchmarkTable2GroupTypes(b *testing.B) {
	_, snap, _ := benchFixtures(b)
	b.ResetTimer()
	var rows []analysis.GroupTypeRow
	for i := 0; i < b.N; i++ {
		rows = analysis.Table2GroupTypes(snap, 250)
	}
	b.ReportMetric(rows[0].Percent, "top-type-%")
}

func BenchmarkTable3Percentiles(b *testing.B) {
	_, _, vec := benchFixtures(b)
	b.ResetTimer()
	var rows []analysis.PercentileRow
	for i := 0; i < b.N; i++ {
		rows = analysis.Table3Percentiles(vec)
	}
	b.ReportMetric(rows[0].P90, "friends-p90")
}

func BenchmarkTable4Classification(b *testing.B) {
	_, _, vec := benchFixtures(b)
	// Two rows of the table keep the benchmark tractable; the full table
	// is exercised by the tests and the steamstudy run. Two-week playtime
	// is continuous with few ties; game ownership is count data, a few
	// hundred distinct values over every owner, like most of Table 4's
	// rows. The likelihoods are evaluated once per distinct value, so
	// the two move differently.
	positive := func(xs []float64) []float64 {
		out := make([]float64, 0, len(xs))
		for _, x := range xs {
			if x > 0 {
				out = append(out, x)
			}
		}
		return out
	}
	playtime := positive(vec.TwoWkH)
	rows := []struct {
		name string
		data []float64
		opts heavytail.Options
	}{
		{"two-week-playtime", playtime, heavytail.Options{FixedXmin: stats.Percentile(playtime, 5)}},
		{"game-ownership", positive(vec.Games), heavytail.Options{Discrete: true, FixedXmin: 1}},
	}
	for _, row := range rows {
		for _, bw := range benchWorkers {
			b.Run(row.name+"/"+bw.name, func(b *testing.B) {
				opts := row.opts
				opts.Workers = bw.workers
				var class heavytail.Class
				for i := 0; i < b.N; i++ {
					res, err := heavytail.ClassifyData(row.data, opts)
					if err != nil {
						b.Fatal(err)
					}
					class = res.Class
				}
				b.ReportMetric(float64(class), "class-code")
			})
		}
	}
}

// --- Figures ---

func BenchmarkFigure1Evolution(b *testing.B) {
	_, _, vec := benchFixtures(b)
	b.ResetTimer()
	var pts []graph.EvolutionPoint
	for i := 0; i < b.N; i++ {
		pts = analysis.Figure1Evolution(vec)
	}
	b.ReportMetric(float64(pts[len(pts)-1].Friendships), "final-friendships")
}

func BenchmarkFigure2DegreeDist(b *testing.B) {
	_, _, vec := benchFixtures(b)
	years := []int{2009, 2010, 2011, 2012, 2013}
	b.ResetTimer()
	var series []analysis.DegreeSeries
	for i := 0; i < b.N; i++ {
		series = analysis.Figure2DegreeDistributions(vec, years)
	}
	b.ReportMetric(float64(len(series)), "series")
}

func BenchmarkFigure3GroupGames(b *testing.B) {
	_, snap, _ := benchFixtures(b)
	b.ResetTimer()
	var res analysis.Figure3Result
	for i := 0; i < b.N; i++ {
		res = analysis.Figure3GroupGameDiversity(snap, 100)
	}
	b.ReportMetric(res.FocusedFraction*100, "focused-%")
}

func BenchmarkFigure4Ownership(b *testing.B) {
	_, _, vec := benchFixtures(b)
	b.ResetTimer()
	var res analysis.OwnershipResult
	for i := 0; i < b.N; i++ {
		res = analysis.Figure4Ownership(vec)
	}
	b.ReportMetric(res.OwnedP80, "owned-p80")
}

func BenchmarkFigure5GenreOwnership(b *testing.B) {
	_, snap, _ := benchFixtures(b)
	b.ResetTimer()
	var rows []analysis.GenreOwnershipRow
	for i := 0; i < b.N; i++ {
		rows = analysis.Figure5GenreOwnership(snap)
	}
	b.ReportMetric(rows[0].UnplayedFrac*100, "action-unplayed-%")
}

func BenchmarkFigure6PlaytimeCDF(b *testing.B) {
	_, _, vec := benchFixtures(b)
	b.ResetTimer()
	var res analysis.PlaytimeCDFResult
	for i := 0; i < b.N; i++ {
		res = analysis.Figure6PlaytimeCDF(vec)
	}
	b.ReportMetric(res.Top20TotalShare*100, "top20-share-%")
}

func BenchmarkFigure7TwoWeek(b *testing.B) {
	_, _, vec := benchFixtures(b)
	b.ResetTimer()
	var res analysis.TwoWeekResult
	for i := 0; i < b.N; i++ {
		res = analysis.Figure7NonZeroTwoWeek(vec)
	}
	b.ReportMetric(res.P80, "p80-hours")
}

func BenchmarkFigure8MarketValue(b *testing.B) {
	_, _, vec := benchFixtures(b)
	b.ResetTimer()
	var res analysis.MarketValueResult
	for i := 0; i < b.N; i++ {
		res = analysis.Figure8MarketValue(vec)
	}
	b.ReportMetric(res.P80, "p80-dollars")
}

func BenchmarkFigure9GenreExpenditure(b *testing.B) {
	_, snap, _ := benchFixtures(b)
	b.ResetTimer()
	var rows []analysis.GenreExpenditureRow
	for i := 0; i < b.N; i++ {
		rows = analysis.Figure9GenreExpenditure(snap)
	}
	b.ReportMetric(rows[0].PlaytimeShare*100, "action-playtime-%")
}

func BenchmarkFigure10Multiplayer(b *testing.B) {
	_, snap, _ := benchFixtures(b)
	b.ResetTimer()
	var res analysis.MultiplayerShareResult
	for i := 0; i < b.N; i++ {
		res = analysis.Figure10MultiplayerShare(snap)
	}
	b.ReportMetric(res.TwoWeekShare*100, "mp-2wk-share-%")
}

func BenchmarkFigure11Homophily(b *testing.B) {
	_, _, vec := benchFixtures(b)
	b.ResetTimer()
	var rows []analysis.HomophilyRow
	for i := 0; i < b.N; i++ {
		rows = analysis.Figure11Homophily(vec)
	}
	b.ReportMetric(rows[0].Rho, "value-homophily-rho")
}

func BenchmarkFigure12WeekMatrix(b *testing.B) {
	u, _, _ := benchFixtures(b)
	sample := u.SampleWeekUsers(0.005)
	b.ResetTimer()
	var res analysis.WeekMatrixResult
	for i := 0; i < b.N; i++ {
		res = analysis.Figure12WeekMatrix(sample, u.WeekSeries)
	}
	b.ReportMetric(res.DayOneRankPersistence, "day1-persistence-rho")
}

// --- Sections ---

func BenchmarkSection4Locality(b *testing.B) {
	_, _, vec := benchFixtures(b)
	b.ResetTimer()
	var res analysis.LocalityResult
	for i := 0; i < b.N; i++ {
		res = analysis.Section4Locality(vec)
	}
	b.ReportMetric(res.InternationalFrac*100, "international-%")
}

func BenchmarkSection7Correlations(b *testing.B) {
	_, _, vec := benchFixtures(b)
	b.ResetTimer()
	var rows []analysis.CorrelationRow
	for i := 0; i < b.N; i++ {
		rows = analysis.Section7Correlations(vec)
	}
	b.ReportMetric(rows[0].Rho, "games-friends-rho")
}

func BenchmarkSection8Evolution(b *testing.B) {
	benchFixtures(b)
	b.ResetTimer()
	var cmp analysis.SnapshotComparison
	for i := 0; i < b.N; i++ {
		cmp = analysis.Section8Evolution(benchVec, benchVec2)
	}
	b.ReportMetric(cmp.TailGamesGrowth, "tail-growth-x")
}

func BenchmarkSection9Achievements(b *testing.B) {
	_, snap, _ := benchFixtures(b)
	b.ResetTimer()
	var res analysis.AchievementsResult
	for i := 0; i < b.N; i++ {
		res = analysis.Section9Achievements(snap)
	}
	b.ReportMetric(res.Rho1to90, "rho-1to90")
}

// --- Methodology (§3.1) ---

func BenchmarkCrawlThroughput(b *testing.B) {
	cfg := simworld.DefaultConfig(400)
	cfg.CatalogSize = 60
	u := simworld.MustGenerate(cfg, 3)
	srv, err := ServeUniverse(u, ServerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := Crawl(CrawlOptions{
			BaseURL: srv.BaseURL, Workers: 8, Timeout: 2 * time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(snap.Users) != 400 {
			b.Fatalf("crawl found %d users", len(snap.Users))
		}
	}
}

// --- Substrate micro-benchmarks ---

func BenchmarkGenerateUniverse10k(b *testing.B) {
	cfg := simworld.DefaultConfig(10000)
	cfg.CatalogSize = 1000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simworld.MustGenerate(cfg, int64(i+1))
	}
}

// benchWorkers are the two points of the tier-2 perf trajectory: the
// serial baseline and the full worker pool. Rendered output is identical
// between them; only the wall clock moves.
var benchWorkers = []struct {
	name    string
	workers int
}{
	{"workers=1", 1},
	{"workers=max", 0},
}

func BenchmarkHeavytailFit(b *testing.B) {
	r := randx.New(1)
	data := make([]float64, 50000)
	for i := range data {
		data[i] = r.TruncatedPowerLaw(1.8, 0.01, 1)
	}
	for _, bw := range benchWorkers {
		b.Run(bw.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := heavytail.New(data, heavytail.Options{Workers: bw.workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSpearman100k(b *testing.B) {
	r := randx.New(2)
	x := make([]float64, 100000)
	y := make([]float64, 100000)
	for i := range x {
		x[i] = r.NormFloat64()
		y[i] = 0.5*x[i] + r.NormFloat64()
	}
	// full re-ranks both columns per call (the old §7 path, one sort per
	// column per pair); ranked correlates precomputed mid-ranks (the
	// cached path) — both return bit-identical ρ.
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			stats.Spearman(x, y)
		}
	})
	b.Run("ranked", func(b *testing.B) {
		rx, ry := stats.Ranks(x), stats.Ranks(y)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			stats.SpearmanRanked(rx, ry)
		}
	})
}

func BenchmarkCopulaSample(b *testing.B) {
	m := []float64{
		1, 0.5, 0.2,
		0.5, 1, 0.1,
		0.2, 0.1, 1,
	}
	cop, _, err := randx.NewCopula(3, m)
	if err != nil {
		b.Fatal(err)
	}
	r := randx.New(3)
	z := make([]float64, 3)
	u := make([]float64, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cop.Sample(r, z, u)
	}
}

func BenchmarkGraphBuild(b *testing.B) {
	u, snap, _ := benchFixtures(b)
	_ = u
	edges := snap.FriendshipEdges()
	gedges := make([]graph.Edge, len(edges))
	for i, e := range edges {
		gedges[i] = graph.Edge{A: e.A, B: e.B, Since: e.Since}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.Build(len(snap.Users), gedges)
	}
}

func BenchmarkQuantileSpline(b *testing.B) {
	q := dists.MustQuantileSpline(1, []dists.Anchor{
		{P: 0.5, V: 4}, {P: 0.8, V: 15}, {P: 0.9, V: 29},
		{P: 0.95, V: 50}, {P: 0.99, V: 122},
	}, 2.6, 0)
	r := randx.New(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Quantile(r.Float64())
	}
}

func BenchmarkRunAllRender(b *testing.B) {
	for _, bw := range benchWorkers {
		b.Run(bw.name, func(b *testing.B) {
			s, err := New(Options{Users: 20000, CatalogSize: 1500, Seed: 2016, Workers: bw.workers})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.RunAll(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
