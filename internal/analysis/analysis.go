// Package analysis reproduces every table and figure of the paper's
// evaluation from a dataset.Snapshot: Tables 1-4, Figures 1-12, the §7
// correlation study, the §8 two-snapshot evolution, and the §9
// achievements study. Each experiment is a pure function from snapshot(s)
// to a typed result that the report package renders and the benchmarks
// regenerate.
package analysis

import (
	"steamstudy/internal/dataset"
	"steamstudy/internal/graph"
)

// Vectors caches the per-user attribute columns extracted from a
// snapshot, shared by several experiments.
type Vectors struct {
	Snap *dataset.Snapshot
	// Per-user columns, aligned with Snap.Users.
	Friends []float64
	Games   []float64
	Played  []float64
	Groups  []float64
	TotalH  []float64 // hours
	TwoWkH  []float64 // hours
	ValueD  []float64 // dollars

	// G is the friendship graph over user indices.
	G *graph.Graph
}

// Extract builds the attribute columns and the friendship graph.
func Extract(s *dataset.Snapshot) *Vectors {
	n := len(s.Users)
	v := &Vectors{
		Snap:    s,
		Friends: make([]float64, n),
		Games:   make([]float64, n),
		Played:  make([]float64, n),
		Groups:  make([]float64, n),
		TotalH:  make([]float64, n),
		TwoWkH:  make([]float64, n),
		ValueD:  make([]float64, n),
	}
	price := make(map[uint32]int64, len(s.Games))
	for i := range s.Games {
		price[s.Games[i].AppID] = s.Games[i].PriceCents
	}
	for i := range s.Users {
		a := attrsOf(&s.Users[i], price)
		v.Games[i], v.Played[i], v.Groups[i] = a.games, a.played, a.groups
		v.TotalH[i], v.TwoWkH[i], v.ValueD[i] = a.totalH, a.twoWkH, a.valueD
	}
	edges := s.FriendshipEdges()
	gedges := make([]graph.Edge, len(edges))
	for i, e := range edges {
		gedges[i] = graph.Edge{A: e.A, B: e.B, Since: e.Since}
	}
	v.G = graph.Build(n, gedges)
	deg := v.G.Degrees()
	for i, d := range deg {
		v.Friends[i] = float64(d)
	}
	return v
}

// userAttrs is one user's entries in the attribute columns.
type userAttrs struct{ games, played, groups, totalH, twoWkH, valueD float64 }

// attrsOf derives u's attribute entries, pricing its library with price.
func attrsOf(u *dataset.UserRecord, price map[uint32]int64) userAttrs {
	var tot, tw, val int64
	played := 0
	for _, g := range u.Games {
		tot += g.TotalMinutes
		tw += int64(g.TwoWeekMinutes)
		val += price[g.AppID]
		if g.TotalMinutes > 0 {
			played++
		}
	}
	return userAttrs{
		games: float64(len(u.Games)), played: float64(played), groups: float64(len(u.Groups)),
		totalH: float64(tot) / 60, twoWkH: float64(tw) / 60, valueD: float64(val) / 100,
	}
}

// nonZero filters a column to its positive entries.
func nonZero(xs []float64) []float64 {
	out := make([]float64, 0, len(xs))
	for _, x := range xs {
		if x > 0 {
			out = append(out, x)
		}
	}
	return out
}
