package analysis

import (
	"sort"
	"strconv"
	"time"

	"steamstudy/internal/dataset"
	"steamstudy/internal/graph"
	"steamstudy/internal/stats"
)

func endOfYear(y int) int64 {
	return time.Date(y+1, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
}

func itoa(v int) string { return strconv.Itoa(v) }

// Figure1Evolution reproduces Fig 1: monthly cumulative users and
// friendships from September 2008 (when Steam began recording friendship
// timestamps) to the crawl end.
func Figure1Evolution(v *Vectors) []graph.EvolutionPoint {
	created := make([]int64, len(v.Snap.Users))
	for i := range v.Snap.Users {
		created[i] = v.Snap.Users[i].Created
	}
	from := time.Date(2008, 9, 1, 0, 0, 0, 0, time.UTC).Unix()
	return v.G.Evolution(created, from, v.Snap.CollectedAt)
}

// DegreeSeries is one Fig 2 curve: the count of users per friend count.
type DegreeSeries struct {
	Label string
	// Hist maps friend count -> number of users (nonzero only).
	Hist map[int]int
}

// Figure2DegreeDistributions reproduces Fig 2: the cumulative friend
// distribution through each year plus the full network.
func Figure2DegreeDistributions(v *Vectors, years []int) []DegreeSeries {
	var out []DegreeSeries
	for _, y := range years {
		deg := v.G.DegreesAt(endOfYear(y))
		out = append(out, DegreeSeries{
			Label: "through " + itoa(y),
			Hist:  intHist(deg),
		})
	}
	out = append(out, DegreeSeries{Label: "entire network", Hist: intHist(v.G.Degrees())})
	return out
}

func intHist(deg []int) map[int]int {
	h := map[int]int{}
	for _, d := range deg {
		if d > 0 {
			h[d]++
		}
	}
	return h
}

// CapDipStats quantifies the Fig 2 anomaly at the friend caps: the count
// of users just below 250 versus those above it.
type CapDipStats struct {
	At240to250 int
	Above250   int
	Above300   int
}

// Figure2CapDips measures the friend-cap dips.
func Figure2CapDips(v *Vectors) CapDipStats {
	var s CapDipStats
	for _, d := range v.G.Degrees() {
		if d >= 240 && d <= 250 {
			s.At240to250++
		}
		if d > 250 {
			s.Above250++
		}
		if d > 300 {
			s.Above300++
		}
	}
	return s
}

// GroupGamesPoint is one Fig 3 histogram cell: the number of groups whose
// members play a given number of distinct games.
type GroupGamesPoint struct {
	DistinctGames int
	Groups        int
}

// Figure3Result carries the Fig 3 distribution plus the focused-group
// statistic the paper quotes (groups whose members devote >= 90 % of
// playtime to one game).
type Figure3Result struct {
	GroupsConsidered int
	Histogram        []GroupGamesPoint
	// FocusedGroups counts groups with >= 90 % of member playtime on a
	// single game (the paper reports 4.97 %).
	FocusedGroups   int
	FocusedFraction float64
}

// Figure3GroupGameDiversity reproduces Fig 3 over groups with at least
// minMembers members (the paper used 100).
func Figure3GroupGameDiversity(s *dataset.Snapshot, minMembers int) Figure3Result {
	idx := s.UserIndex()
	res := Figure3Result{}
	hist := map[int]int{}
	for gi := range s.Groups {
		g := &s.Groups[gi]
		if len(g.Members) < minMembers {
			continue
		}
		res.GroupsConsidered++
		distinct := map[uint32]int64{}
		var total int64
		for _, m := range g.Members {
			ui, ok := idx[m]
			if !ok {
				continue
			}
			for _, og := range s.Users[ui].Games {
				if og.TotalMinutes > 0 {
					distinct[og.AppID] += og.TotalMinutes
					total += og.TotalMinutes
				}
			}
		}
		hist[len(distinct)]++
		var top int64
		for _, m := range distinct {
			if m > top {
				top = m
			}
		}
		if total > 0 && float64(top)/float64(total) >= 0.90 {
			res.FocusedGroups++
		}
	}
	for k, n := range hist {
		res.Histogram = append(res.Histogram, GroupGamesPoint{DistinctGames: k, Groups: n})
	}
	sort.Slice(res.Histogram, func(a, b int) bool {
		return res.Histogram[a].DistinctGames < res.Histogram[b].DistinctGames
	})
	if res.GroupsConsidered > 0 {
		res.FocusedFraction = float64(res.FocusedGroups) / float64(res.GroupsConsidered)
	}
	return res
}

// OwnershipResult carries Fig 4: the owned and played distributions with
// their 80th percentiles, plus the collector uptick band count.
type OwnershipResult struct {
	OwnedHist  map[int]int
	PlayedHist map[int]int
	OwnedP80   float64
	PlayedP80  float64
	// UptickOwners counts users owning 1268-1290 games (the §5 anomaly).
	UptickOwners int
	// NeverPlayedBigLibraries counts users owning >= 500 games with zero
	// playtime (the paper found 29).
	NeverPlayedBigLibraries int
}

// Figure4Ownership reproduces Fig 4.
func Figure4Ownership(v *Vectors) OwnershipResult {
	res := OwnershipResult{
		OwnedHist:  map[int]int{},
		PlayedHist: map[int]int{},
	}
	for i := range v.Games {
		owned := int(v.Games[i])
		if owned > 0 {
			res.OwnedHist[owned]++
			if owned >= 1268 && owned <= 1290 {
				res.UptickOwners++
			}
			if owned >= 500 && v.TotalH[i] == 0 {
				res.NeverPlayedBigLibraries++
			}
		}
		if played := int(v.Played[i]); played > 0 {
			res.PlayedHist[played]++
		}
	}
	res.OwnedP80 = stats.Percentile(nonZero(v.Games), 80)
	res.PlayedP80 = stats.Percentile(nonZero(v.Played), 80)
	return res
}

// GenreOwnershipRow is one Fig 5 bar pair.
type GenreOwnershipRow struct {
	Genre         string
	Owned         int
	Unplayed      int
	UnplayedFrac  float64
	CatalogShare  float64 // fraction of catalog products with the label
	OwnedShareTop bool    // set on the most-owned genre
}

// Figure5GenreOwnership reproduces Fig 5: copies owned and owned-but-
// unplayed per genre.
func Figure5GenreOwnership(s *dataset.Snapshot) []GenreOwnershipRow {
	genreOf := map[uint32][]string{}
	catalogCount := map[string]int{}
	for i := range s.Games {
		genreOf[s.Games[i].AppID] = s.Games[i].Genres
		for _, g := range s.Games[i].Genres {
			catalogCount[g]++
		}
	}
	owned := map[string]int{}
	unplayed := map[string]int{}
	for i := range s.Users {
		for _, og := range s.Users[i].Games {
			for _, g := range genreOf[og.AppID] {
				owned[g]++
				if og.TotalMinutes == 0 {
					unplayed[g]++
				}
			}
		}
	}
	var rows []GenreOwnershipRow
	for g, n := range owned {
		row := GenreOwnershipRow{Genre: g, Owned: n, Unplayed: unplayed[g]}
		if n > 0 {
			row.UnplayedFrac = float64(unplayed[g]) / float64(n)
		}
		if len(s.Games) > 0 {
			row.CatalogShare = float64(catalogCount[g]) / float64(len(s.Games))
		}
		rows = append(rows, row)
	}
	// Rows come out of map iteration, so equal counts need a tie-break
	// for the render to be deterministic.
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].Owned != rows[b].Owned {
			return rows[a].Owned > rows[b].Owned
		}
		return rows[a].Genre < rows[b].Genre
	})
	if len(rows) > 0 {
		rows[0].OwnedShareTop = true
	}
	return rows
}

// PlaytimeCDFResult carries Fig 6: the CDFs plus the Pareto-share
// statistics the paper quotes.
type PlaytimeCDFResult struct {
	TotalCDF   []stats.CDFPoint
	TwoWeekCDF []stats.CDFPoint
	// Top20TotalShare: the top 20 % of players hold this share of all
	// playtime (paper: 82.4 %).
	Top20TotalShare float64
	// Top10TwoWeekShare: the top 10 % of users hold this share of
	// two-week playtime (paper: 93.0 %).
	Top10TwoWeekShare float64
	// ZeroTwoWeekFrac: fraction of users with zero two-week playtime
	// (paper: over 80 %).
	ZeroTwoWeekFrac float64
}

// Figure6PlaytimeCDF reproduces Fig 6.
func Figure6PlaytimeCDF(v *Vectors) PlaytimeCDFResult {
	res := PlaytimeCDFResult{
		TotalCDF:        stats.EmpiricalCDF(v.TotalH),
		TwoWeekCDF:      stats.EmpiricalCDF(v.TwoWkH),
		ZeroTwoWeekFrac: stats.ZeroFraction(v.TwoWkH),
	}
	res.Top20TotalShare = stats.TopShare(nonZero(v.TotalH), 0.20)
	res.Top10TwoWeekShare = stats.TopShare(v.TwoWkH, 0.10)
	return res
}

// TwoWeekResult carries Fig 7: the nonzero two-week distribution.
type TwoWeekResult struct {
	Bins []stats.Bin
	P80  float64
	Max  float64
	// NearMaxFrac: users at 80-90 % of the 336-hour bound (§6.1 idlers).
	NearMaxFrac float64
}

// Figure7NonZeroTwoWeek reproduces Fig 7 (hours).
func Figure7NonZeroTwoWeek(v *Vectors) TwoWeekResult {
	nz := nonZero(v.TwoWkH)
	res := TwoWeekResult{
		Bins: stats.LogBins(nz, 10),
		P80:  stats.Percentile(nz, 80),
	}
	near := 0
	for _, h := range nz {
		if h > res.Max {
			res.Max = h
		}
		if h >= 0.8*336 && h <= 0.9*336 {
			near++
		}
	}
	if len(v.TwoWkH) > 0 {
		res.NearMaxFrac = float64(near) / float64(len(v.TwoWkH))
	}
	return res
}

// MarketValueResult carries Fig 8.
type MarketValueResult struct {
	Bins []stats.Bin
	P80  float64
	Max  float64
	// UptickAccounts counts accounts valued $14,710-$15,250 (§6.1 calls
	// this anomaly out alongside Fig 4's).
	UptickAccounts int
	// Top20ValueShare: top 20 % of owners hold this share of total value
	// (paper: 73 %).
	Top20ValueShare float64
}

// Figure8MarketValue reproduces Fig 8 (dollars).
func Figure8MarketValue(v *Vectors) MarketValueResult {
	nz := nonZero(v.ValueD)
	res := MarketValueResult{
		Bins:            stats.LogBins(nz, 10),
		P80:             stats.Percentile(nz, 80),
		Top20ValueShare: stats.TopShare(nz, 0.20),
	}
	for _, d := range nz {
		if d > res.Max {
			res.Max = d
		}
		if d >= 14710 && d <= 15250 {
			res.UptickAccounts++
		}
	}
	return res
}

// GenreExpenditureRow is one Fig 9 bar pair.
type GenreExpenditureRow struct {
	Genre string
	// PlaytimeHours is cumulative playtime on games with the label.
	PlaytimeHours float64
	// ValueUSD is the cumulative market value of owned games with the label.
	ValueUSD float64
	// PlaytimeShare and ValueShare are fractions of the all-genre sums
	// (labels overlap, as in the paper).
	PlaytimeShare float64
	ValueShare    float64
}

// Figure9GenreExpenditure reproduces Fig 9.
func Figure9GenreExpenditure(s *dataset.Snapshot) []GenreExpenditureRow {
	type meta struct {
		genres []string
		price  int64
	}
	gameMeta := map[uint32]meta{}
	for i := range s.Games {
		gameMeta[s.Games[i].AppID] = meta{genres: s.Games[i].Genres, price: s.Games[i].PriceCents}
	}
	play := map[string]float64{}
	value := map[string]float64{}
	var playSum, valueSum float64
	for i := range s.Users {
		for _, og := range s.Users[i].Games {
			m := gameMeta[og.AppID]
			for _, g := range m.genres {
				h := float64(og.TotalMinutes) / 60
				d := float64(m.price) / 100
				play[g] += h
				value[g] += d
				playSum += h
				valueSum += d
			}
		}
	}
	var rows []GenreExpenditureRow
	for g := range play {
		row := GenreExpenditureRow{Genre: g, PlaytimeHours: play[g], ValueUSD: value[g]}
		if playSum > 0 {
			row.PlaytimeShare = play[g] / playSum
		}
		if valueSum > 0 {
			row.ValueShare = value[g] / valueSum
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].PlaytimeHours > rows[b].PlaytimeHours })
	return rows
}

// MultiplayerShareResult carries Fig 10.
type MultiplayerShareResult struct {
	// CatalogShare: fraction of games with a multiplayer component
	// (paper: 48.7 %).
	CatalogShare float64
	// TotalShare / TwoWeekShare: fraction of playtime minutes on
	// multiplayer games (paper: 57.7 % / 67.7 %).
	TotalShare   float64
	TwoWeekShare float64
	// UsersOnlyMultiplayerTwoWeek: among users with two-week playtime,
	// the fraction whose entire fortnight was multiplayer.
	UsersOnlyMultiplayerTwoWeek float64
}

// Figure10MultiplayerShare reproduces Fig 10.
func Figure10MultiplayerShare(s *dataset.Snapshot) MultiplayerShareResult {
	mp := map[uint32]bool{}
	mpGames := 0
	for i := range s.Games {
		mp[s.Games[i].AppID] = s.Games[i].Multiplayer
		if s.Games[i].Multiplayer {
			mpGames++
		}
	}
	var res MultiplayerShareResult
	if len(s.Games) > 0 {
		res.CatalogShare = float64(mpGames) / float64(len(s.Games))
	}
	var mpTot, tot, mpTW, tw float64
	var twUsers, twOnlyMP int
	for i := range s.Users {
		userTW, userMPTW := int64(0), int64(0)
		for _, og := range s.Users[i].Games {
			tot += float64(og.TotalMinutes)
			tw += float64(og.TwoWeekMinutes)
			userTW += int64(og.TwoWeekMinutes)
			if mp[og.AppID] {
				mpTot += float64(og.TotalMinutes)
				mpTW += float64(og.TwoWeekMinutes)
				userMPTW += int64(og.TwoWeekMinutes)
			}
		}
		if userTW > 0 {
			twUsers++
			if userMPTW == userTW {
				twOnlyMP++
			}
		}
	}
	if tot > 0 {
		res.TotalShare = mpTot / tot
	}
	if tw > 0 {
		res.TwoWeekShare = mpTW / tw
	}
	if twUsers > 0 {
		res.UsersOnlyMultiplayerTwoWeek = float64(twOnlyMP) / float64(twUsers)
	}
	return res
}
