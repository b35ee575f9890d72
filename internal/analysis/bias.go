package analysis

import (
	"cmp"
	"slices"

	"steamstudy/internal/dataset"
	"steamstudy/internal/stats"
)

// SnowballSample simulates a Becker/Blackburn-style crawl over a snapshot
// (§2.2): breadth-first traversal of friend lists from seed accounts.
// Isolated accounts and components not reachable from the seeds are never
// found. The crawler package implements the same traversal over HTTP
// (crawler.Snowball); this in-memory version lets the bias experiment run
// on any snapshot without a server.
func SnowballSample(s *dataset.Snapshot, seedCount, maxUsers int) *dataset.Snapshot {
	if seedCount < 1 {
		seedCount = 1
	}
	// Deterministic seeds: the highest-degree accounts, which is how
	// crawls were seeded in practice (well-known public profiles).
	type cand struct {
		idx int
		deg int
		id  uint64
	}
	cands := make([]cand, len(s.Users))
	for i := range s.Users {
		cands[i] = cand{idx: i, deg: len(s.Users[i].Friends), id: s.Users[i].SteamID}
	}
	slices.SortFunc(cands, func(a, b cand) int {
		if c := cmp.Compare(b.deg, a.deg); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	idx := s.UserIndex()
	visited := make(map[int32]bool)
	var queue []int32
	for i := 0; i < seedCount && i < len(cands); i++ {
		v := int32(cands[i].idx)
		if !visited[v] {
			visited[v] = true
			queue = append(queue, v)
		}
	}
	out := &dataset.Snapshot{CollectedAt: s.CollectedAt, Games: s.Games}
	for qi := 0; qi < len(queue); qi++ {
		if maxUsers > 0 && len(out.Users) >= maxUsers {
			break
		}
		u := &s.Users[queue[qi]]
		out.Users = append(out.Users, *u)
		for _, f := range u.Friends {
			if j, ok := idx[f.SteamID]; ok && !visited[j] {
				visited[j] = true
				queue = append(queue, j)
			}
		}
	}
	return out
}

// SamplingBiasResult quantifies the §2.2 claim: a snowball crawl misses
// low-degree and isolated users, inflating connectivity statistics, which
// the paper's exhaustive ID sweep avoids.
type SamplingBiasResult struct {
	ExhaustiveUsers int
	SnowballUsers   int
	// Coverage is the fraction of all accounts the snowball reached.
	Coverage float64
	// Mean and median friend counts under each methodology.
	ExhaustiveMeanFriends   float64
	SnowballMeanFriends     float64
	ExhaustiveMedianFriends float64
	SnowballMedianFriends   float64
	// ZeroFriendFracExhaustive is the share of accounts with no friends —
	// invisible to a snowball crawl by construction.
	ZeroFriendFracExhaustive float64
}

// SamplingBias compares an exhaustive snapshot with a snowball sample of
// the same universe.
func SamplingBias(exhaustive, snowball *dataset.Snapshot) SamplingBiasResult {
	degs := func(s *dataset.Snapshot) []float64 {
		out := make([]float64, len(s.Users))
		for i := range s.Users {
			out[i] = float64(len(s.Users[i].Friends))
		}
		return out
	}
	ex := degs(exhaustive)
	sb := degs(snowball)
	res := SamplingBiasResult{
		ExhaustiveUsers:          len(ex),
		SnowballUsers:            len(sb),
		ExhaustiveMeanFriends:    stats.Mean(ex),
		SnowballMeanFriends:      stats.Mean(sb),
		ExhaustiveMedianFriends:  stats.Median(ex),
		SnowballMedianFriends:    stats.Median(sb),
		ZeroFriendFracExhaustive: stats.ZeroFraction(ex),
	}
	if len(ex) > 0 {
		res.Coverage = float64(len(sb)) / float64(len(ex))
	}
	return res
}
