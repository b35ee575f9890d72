package core

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"steamstudy/internal/analysis"
	"steamstudy/internal/report"
)

// ExportCSV writes every experiment's data series to dir as CSV files, one
// per table/figure, for plotting with external tools. The directory is
// created if missing. Generator-bound series (Fig 12) are skipped for
// snapshot-only studies.
func (s *Study) ExportCSV(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("steamstudy: creating %s: %w", dir, err)
	}
	write := func(name string, headers []string, rows [][]string) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := report.CSV(f, headers, rows); err != nil {
			f.Close()
			return fmt.Errorf("steamstudy: writing %s: %w", name, err)
		}
		return f.Close()
	}
	ff := func(v float64) string { return fmt.Sprintf("%g", v) }

	// Table 1.
	t1 := analysis.Table1Countries(s.snap, 10)
	var rows [][]string
	for _, r := range t1.Rows {
		rows = append(rows, []string{fmt.Sprint(r.Rank), r.Country, ff(r.Percent)})
	}
	rows = append(rows, []string{"", fmt.Sprintf("Other(%d)", t1.OtherCount), ff(t1.OtherPercent)})
	if err := write("table1_countries.csv", []string{"rank", "country", "percent"}, rows); err != nil {
		return err
	}

	// Table 2.
	rows = nil
	for _, r := range analysis.Table2GroupTypes(s.snap, 250) {
		rows = append(rows, []string{r.Type, fmt.Sprint(r.Count), ff(r.Percent)})
	}
	if err := write("table2_group_types.csv", []string{"type", "count", "percent"}, rows); err != nil {
		return err
	}

	// Table 3.
	rows = nil
	for _, r := range analysis.Table3Percentiles(s.vectors) {
		rows = append(rows, []string{r.Attribute, ff(r.P50), ff(r.P80), ff(r.P90), ff(r.P95), ff(r.P99)})
	}
	if err := write("table3_percentiles.csv",
		[]string{"attribute", "p50", "p80", "p90", "p95", "p99"}, rows); err != nil {
		return err
	}

	// Table 4.
	rows = nil
	inputs := analysis.StandardTable4Inputs(s.vectors, s.vectors2, s.opts.Years)
	for _, r := range analysis.Table4Classification(inputs, s.opts.Workers) {
		if r.Err != "" {
			rows = append(rows, []string{r.Distribution, "", "", "", "", "", "", "", "", "error"})
			continue
		}
		rows = append(rows, []string{
			r.Distribution,
			ff(r.Comparisons.PLvsExp.R), ff(r.Comparisons.PLvsExp.P),
			ff(r.Comparisons.PLvsLN.R), ff(r.Comparisons.PLvsLN.P),
			ff(r.Comparisons.TPLvsPL.R), ff(r.Comparisons.TPLvsPL.P),
			ff(r.Comparisons.TPLvsLN.R), ff(r.Comparisons.TPLvsLN.P),
			r.Class.String(),
		})
	}
	if err := write("table4_classification.csv", []string{
		"distribution", "pl_exp_R", "pl_exp_p", "pl_ln_R", "pl_ln_p",
		"tpl_pl_R", "tpl_pl_p", "tpl_ln_R", "tpl_ln_p", "class",
	}, rows); err != nil {
		return err
	}

	// Figure 1.
	rows = nil
	for _, p := range analysis.Figure1Evolution(s.vectors) {
		rows = append(rows, []string{
			fmt.Sprintf("%04d-%02d", p.Year, p.Month),
			fmt.Sprint(p.Users), fmt.Sprint(p.Friendships),
		})
	}
	if err := write("fig1_evolution.csv", []string{"month", "users", "friendships"}, rows); err != nil {
		return err
	}

	// Figure 2.
	rows = nil
	for _, series := range analysis.Figure2DegreeDistributions(s.vectors, s.opts.Years) {
		rows = histRows(rows, series.Label, series.Hist)
	}
	if err := write("fig2_degrees.csv", []string{"series", "friends", "users"}, rows); err != nil {
		return err
	}

	// Figure 3.
	f3 := analysis.Figure3GroupGameDiversity(s.snap, 100)
	rows = nil
	for _, p := range f3.Histogram {
		rows = append(rows, []string{fmt.Sprint(p.DistinctGames), fmt.Sprint(p.Groups)})
	}
	if err := write("fig3_group_games.csv", []string{"distinct_games", "groups"}, rows); err != nil {
		return err
	}

	// Figure 4.
	f4 := analysis.Figure4Ownership(s.vectors)
	rows = nil
	rows = histRows(rows, "owned", f4.OwnedHist)
	rows = histRows(rows, "played", f4.PlayedHist)
	if err := write("fig4_ownership.csv", []string{"series", "games", "users"}, rows); err != nil {
		return err
	}

	// Figure 5.
	rows = nil
	for _, r := range analysis.Figure5GenreOwnership(s.snap) {
		rows = append(rows, []string{r.Genre, fmt.Sprint(r.Owned), fmt.Sprint(r.Unplayed), ff(r.CatalogShare)})
	}
	if err := write("fig5_genre_ownership.csv", []string{"genre", "owned", "unplayed", "catalog_share"}, rows); err != nil {
		return err
	}

	// Figure 6.
	f6 := analysis.Figure6PlaytimeCDF(s.vectors)
	rows = nil
	for _, p := range f6.TotalCDF {
		rows = append(rows, []string{"total", ff(p.X), ff(p.P)})
	}
	for _, p := range f6.TwoWeekCDF {
		rows = append(rows, []string{"two_week", ff(p.X), ff(p.P)})
	}
	if err := write("fig6_playtime_cdf.csv", []string{"series", "hours", "cdf"}, rows); err != nil {
		return err
	}

	// Figures 7 and 8 (log-binned densities).
	rows = nil
	for _, b := range analysis.Figure7NonZeroTwoWeek(s.vectors).Bins {
		rows = append(rows, []string{ff(b.Center), fmt.Sprint(b.Count), ff(b.Density)})
	}
	if err := write("fig7_two_week.csv", []string{"hours", "users", "density"}, rows); err != nil {
		return err
	}
	rows = nil
	for _, b := range analysis.Figure8MarketValue(s.vectors).Bins {
		rows = append(rows, []string{ff(b.Center), fmt.Sprint(b.Count), ff(b.Density)})
	}
	if err := write("fig8_market_value.csv", []string{"dollars", "users", "density"}, rows); err != nil {
		return err
	}

	// Figure 9.
	rows = nil
	for _, r := range analysis.Figure9GenreExpenditure(s.snap) {
		rows = append(rows, []string{r.Genre, ff(r.PlaytimeHours), ff(r.PlaytimeShare), ff(r.ValueUSD), ff(r.ValueShare)})
	}
	if err := write("fig9_genre_expenditure.csv",
		[]string{"genre", "playtime_hours", "playtime_share", "value_usd", "value_share"}, rows); err != nil {
		return err
	}

	// Figure 10.
	f10 := analysis.Figure10MultiplayerShare(s.snap)
	if err := write("fig10_multiplayer.csv",
		[]string{"catalog_share", "total_share", "two_week_share", "users_only_mp_two_week"},
		[][]string{{ff(f10.CatalogShare), ff(f10.TotalShare), ff(f10.TwoWeekShare), ff(f10.UsersOnlyMultiplayerTwoWeek)}}); err != nil {
		return err
	}

	// Figure 11 scatter + correlations.
	own, nbr := analysis.HomophilyScatter(s.vectors, 5000)
	rows = nil
	for i := range own {
		rows = append(rows, []string{ff(own[i]), ff(nbr[i])})
	}
	if err := write("fig11_value_scatter.csv", []string{"own_value", "friends_avg_value"}, rows); err != nil {
		return err
	}
	rows = nil
	for _, r := range analysis.Figure11Homophily(s.vectors) {
		rows = append(rows, []string{r.Attribute, ff(r.Rho), r.Strength})
	}
	for _, r := range analysis.Section7Correlations(s.vectors) {
		rows = append(rows, []string{r.Pair, ff(r.Rho), r.Strength})
	}
	if err := write("correlations.csv", []string{"pair", "rho", "strength"}, rows); err != nil {
		return err
	}

	// Figure 12 (generator-bound).
	if s.universe != nil {
		sample := s.universe.SampleWeekUsers(s.opts.WeekSampleFrac)
		res := analysis.Figure12WeekMatrix(sample, s.universe.WeekSeries)
		rows = nil
		for k := 0; k < res.Users; k++ {
			row := []string{fmt.Sprint(k)}
			for d := 0; d < 7; d++ {
				row = append(row, fmt.Sprint(res.Minutes[d][k]))
			}
			rows = append(rows, row)
		}
		if err := write("fig12_week_matrix.csv",
			[]string{"user_rank", "day1", "day2", "day3", "day4", "day5", "day6", "day7"}, rows); err != nil {
			return err
		}
	}
	return nil
}

// histRows appends one (label, key, count) row per histogram bin, in
// ascending key order so the file's bytes never depend on map order.
func histRows(rows [][]string, label string, hist map[int]int) [][]string {
	keys := make([]int, 0, len(hist))
	for k := range hist {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		rows = append(rows, []string{label, fmt.Sprint(k), fmt.Sprint(hist[k])})
	}
	return rows
}
