package analysis

import (
	"sort"

	"steamstudy/internal/dataset"
	"steamstudy/internal/heavytail"
	"steamstudy/internal/par"
	"steamstudy/internal/stats"
)

// CountryRow is one row of Table 1.
type CountryRow struct {
	Rank    int
	Country string
	Percent float64
}

// CountryTable reproduces Table 1: the top-N countries among users who
// self-report one, plus an aggregate "Other" row.
type CountryTable struct {
	ReportFraction float64 // share of users reporting a country
	Rows           []CountryRow
	OtherCount     int     // number of countries folded into Other
	OtherPercent   float64 // combined share of the folded countries
}

// Table1Countries computes the reported-country breakdown.
func Table1Countries(s *dataset.Snapshot, topN int) CountryTable {
	counts := map[string]int{}
	reporters := 0
	for i := range s.Users {
		if c := s.Users[i].Country; c != "" {
			counts[c]++
			reporters++
		}
	}
	type kv struct {
		c string
		n int
	}
	all := make([]kv, 0, len(counts))
	for c, n := range counts {
		all = append(all, kv{c, n})
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].n != all[b].n {
			return all[a].n > all[b].n
		}
		return all[a].c < all[b].c
	})
	t := CountryTable{}
	if len(s.Users) > 0 {
		t.ReportFraction = float64(reporters) / float64(len(s.Users))
	}
	if reporters == 0 {
		return t
	}
	for i, e := range all {
		if i >= topN {
			t.OtherCount++
			t.OtherPercent += float64(e.n) / float64(reporters) * 100
			continue
		}
		t.Rows = append(t.Rows, CountryRow{
			Rank: i + 1, Country: e.c,
			Percent: float64(e.n) / float64(reporters) * 100,
		})
	}
	return t
}

// GroupTypeRow is one row of Table 2.
type GroupTypeRow struct {
	Type    string
	Count   int
	Percent float64
}

// GroupTypeTable reproduces Table 2: the type mix of the topN largest
// groups (the paper used 250). Untyped groups (the crawler could not
// categorize them) are reported under "Unknown".
func Table2GroupTypes(s *dataset.Snapshot, topN int) []GroupTypeRow {
	order := make([]int, len(s.Groups))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ga, gb := &s.Groups[order[a]], &s.Groups[order[b]]
		if len(ga.Members) != len(gb.Members) {
			return len(ga.Members) > len(gb.Members)
		}
		return ga.GID < gb.GID
	})
	if topN > len(order) {
		topN = len(order)
	}
	counts := map[string]int{}
	for _, gi := range order[:topN] {
		ty := s.Groups[gi].Type
		if ty == "" {
			ty = "Unknown"
		}
		counts[ty]++
	}
	var rows []GroupTypeRow
	for ty, n := range counts {
		rows = append(rows, GroupTypeRow{
			Type: ty, Count: n, Percent: float64(n) / float64(topN) * 100,
		})
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].Count != rows[b].Count {
			return rows[a].Count > rows[b].Count
		}
		return rows[a].Type < rows[b].Type
	})
	return rows
}

// PercentileRow is one row of Table 3.
type PercentileRow struct {
	Attribute string
	// P50..P99 follow the paper's columns.
	P50, P80, P90, P95, P99 float64
}

// Table3Percentiles reproduces Table 3. Following the paper's
// presentation, count attributes (friends, games, groups, total playtime,
// market value) are computed over users with a nonzero value, while
// two-week playtime is computed over all users (its published 50th and
// 80th percentiles are zero).
func Table3Percentiles(v *Vectors) []PercentileRow {
	row := func(name string, xs []float64) PercentileRow {
		p := stats.Percentiles(xs, 50, 80, 90, 95, 99)
		return PercentileRow{Attribute: name, P50: p[0], P80: p[1], P90: p[2], P95: p[3], P99: p[4]}
	}
	return []PercentileRow{
		row("Friends", nonZero(v.Friends)),
		row("Owned games", nonZero(v.Games)),
		row("Group membership", nonZero(v.Groups)),
		row("Account market value ($)", nonZero(v.ValueD)),
		row("Total playtime (hrs)", nonZero(v.TotalH)),
		row("Two-week playtime (hrs)", v.TwoWkH),
	}
}

// ClassificationRow is one row of Table 4.
type ClassificationRow struct {
	Distribution string
	Comparisons  heavytail.ComparisonSet
	Class        heavytail.Class
	Alpha        float64
	Xmin         float64
	TailN        int
	// LowResolution marks rows whose tail has too few distinct values for
	// the pairwise tests to be reliable (e.g. per-year friendship slices
	// at sub-paper population scales, where most degrees are 1).
	LowResolution bool
	Err           string // non-empty when the fit failed (degenerate data)
}

// Table4Input names one distribution to classify.
type Table4Input struct {
	Name     string
	Data     []float64
	Discrete bool
	// FixedXmin pins the tail threshold (0 scans). Count distributions
	// with small per-slice tails (per-year friendship degrees) classify
	// from the whole support, as the paper's full-population fits
	// effectively did.
	FixedXmin float64
}

// Table4Classification runs the heavy-tail classification pipeline on the
// given distributions — the paper's Appendix table. Distributions are
// classified on their nonzero values with a scanned xmin. Each metric is
// classified independently on the worker pool (workers <= 0 means one per
// CPU, 1 forces serial) and its row written to its input's slot, so the
// table is identical for any worker count.
func Table4Classification(inputs []Table4Input, workers int) []ClassificationRow {
	rows := make([]ClassificationRow, len(inputs))
	par.For(workers, len(inputs), func(i int) {
		in := inputs[i]
		row := ClassificationRow{Distribution: in.Name}
		res, err := heavytail.ClassifyData(in.Data, heavytail.Options{
			Discrete:  in.Discrete,
			FixedXmin: in.FixedXmin,
			Workers:   workers,
		})
		if err != nil {
			row.Err = err.Error()
			rows[i] = row
			return
		}
		row.Comparisons = res.Comparisons
		row.Class = res.Class
		row.Alpha = res.Fit.Alpha()
		row.Xmin = res.Fit.Xmin
		row.TailN = len(res.Fit.Tail)
		row.LowResolution = distinctCount(res.Fit.Tail, 12) < 12
		rows[i] = row
	})
	return rows
}

// StandardTable4Inputs builds the paper's Table 4 row set from one or two
// snapshots (the second-snapshot rows are included when second != nil),
// plus per-year friendship distributions derived from edge timestamps.
func StandardTable4Inputs(v *Vectors, second *Vectors, years []int) []Table4Input {
	var c2 *t4Columns
	if second != nil {
		c2 = vectorColumns(second, nil)
	}
	return table4Rows(vectorColumns(v, years), c2, years)
}

// t4Columns are the Vectors columns Table 4 consumes, filtered to
// positive values, in user order.
type t4Columns struct {
	valueD, totalH, twoWkH []float64
	games, played, groups  []float64
	sizes                  []float64
	through, only          [][]float64 // one slot per requested year
}

// vectorColumns is the in-memory column producer. Its friendship columns
// are graph degrees, which drop dangling friend entries and entries only
// one side lists (FriendshipEdges); StreamTable4Inputs' producer counts
// friend-list entries instead. The two agree only on fsck-clean
// snapshots, so they stay separate producers.
func vectorColumns(v *Vectors, years []int) *t4Columns {
	c := &t4Columns{
		valueD: nonZero(v.ValueD), totalH: nonZero(v.TotalH), twoWkH: nonZero(v.TwoWkH),
		games: nonZero(v.Games), played: nonZero(v.Played), groups: nonZero(v.Groups),
		through: make([][]float64, len(years)),
		only:    make([][]float64, len(years)),
	}
	for i := range v.Snap.Groups {
		appendPositive(&c.sizes, float64(len(v.Snap.Groups[i].Members)))
	}
	for yi, y := range years {
		c.through[yi] = positiveInts(v.G.DegreesAt(endOfYear(y)))
		c.only[yi] = positiveInts(v.G.DegreesAdded(endOfYear(y-1), endOfYear(y)))
	}
	return c
}

// table4Rows is Table 4's row list: names, order and the FixedXmin policy
// over c's columns, with second's attribute rows when second != nil.
func table4Rows(c, second *t4Columns, years []int) []Table4Input {
	var inputs []Table4Input
	add := func(name string, data []float64, discrete bool) {
		in := Table4Input{Name: name, Data: data, Discrete: discrete}
		if discrete {
			in.FixedXmin = 1
		} else {
			// Classify continuous attributes from the bulk of their
			// support: a scanned xmin can retreat deep into a thin tail
			// where the power-law-vs-exponential gate loses power at
			// sub-paper population scales.
			in.FixedXmin = stats.Percentile(data, 5)
		}
		inputs = append(inputs, in)
	}
	add("Account market values", c.valueD, false)
	add("Total playtime", c.totalH, false)
	add("Two-week playtime", c.twoWkH, false)
	add("Game ownership", c.games, true)
	add("Played game ownership", c.played, true)
	add("Group membership per user", c.groups, true)
	add("Group size", c.sizes, true)

	if second != nil {
		add("Account market values (second snapshot)", second.valueD, false)
		add("Total playtime (second snapshot)", second.totalH, false)
		add("Two-week playtime (second snapshot)", second.twoWkH, false)
		add("Game ownership (second snapshot)", second.games, true)
		add("Played game ownership (second snapshot)", second.played, true)
	}

	for yi, y := range years {
		add("Friendship (through "+itoa(y)+")", c.through[yi], true)
		add("Friendship ("+itoa(y)+" only)", c.only[yi], true)
	}
	return inputs
}

// distinctCount counts distinct values in sorted data, stopping at cap.
func distinctCount(sorted []float64, cap int) int {
	n := 0
	for i := 0; i < len(sorted); i++ {
		if i == 0 || sorted[i] != sorted[i-1] {
			n++
			if n >= cap {
				return n
			}
		}
	}
	return n
}

func positiveInts(xs []int) []float64 {
	var out []float64
	for _, x := range xs {
		if x > 0 {
			out = append(out, float64(x))
		}
	}
	return out
}
