package simworld

import (
	"cmp"
	"slices"

	"steamstudy/internal/par"
	"steamstudy/internal/randx"
)

// generateFriendships wires the friendship graph. The wiring must deliver,
// simultaneously:
//
//   - the Fig 2 degree distribution (the copula's friend-count marginal),
//     with the 250/300 cap dips;
//   - the §7/Fig 11 homophily: neighbors are similar in popularity, money
//     spent, playtime and games owned — achieved by pairing friendship
//     "stubs" sorted along the social latent with small Laplace-distributed
//     rank noise, a degree-preserving proximity matching;
//   - the §4.1 locality: ~70 % of friendships are domestic — achieved by
//     wiring a configurable share of each user's stubs within their latent
//     country (sorted by city, then social score, so city locality emerges
//     too);
//   - Fig 1's growth curves, via edge timestamps drawn from the users'
//     join dates plus an exponential befriending delay.
func generateFriendships(cfg Config, rng *randx.RNG, st *genState, u *Universe) {
	n := len(u.Users)
	wrng := rng.Split("friend-wiring")
	trng := rng.Split("friend-times")

	// Cap degrees by the §4.1 policies. The clamp concentrates the tail
	// mass at exactly the cap, producing the Fig 2 dips above 250.
	degrees := make([]int, n)
	for i := 0; i < n; i++ {
		d := st.friendTarget[i]
		if cap := u.Users[i].FriendCap(); d > cap {
			d = cap
		}
		degrees[i] = d
	}

	seen := make(map[uint64]struct{}, n*4)
	var edges []Friendship
	emit := func(a, b int32) bool {
		if a == b {
			return false
		}
		if a > b {
			a, b = b, a
		}
		key := uint64(a)<<32 | uint64(uint32(b))
		if _, dup := seen[key]; dup {
			return false
		}
		seen[key] = struct{}{}
		edges = append(edges, Friendship{A: a, B: b})
		return true
	}

	// Split stubs into a domestic and a global share. Per-user independent
	// draws: chunked streams keep the split worker-independent.
	domestic := make([]int, n)
	global := make([]int, n)
	forChunks(cfg.Workers, n, wrng, "split", func(lo, hi int, chrng *randx.RNG) {
		for i := lo; i < hi; i++ {
			d := degrees[i]
			dd := int(float64(d)*cfg.DomesticWiringFrac + chrng.Float64())
			if dd > d {
				dd = d
			}
			domestic[i] = dd
			global[i] = d - dd
		}
	})

	// Pass 1: per-country wiring ordered by the social latent. City
	// locality needs no third pass: city assignment partially tracks the
	// social latent (users.go), so rank-local domestic pairs often share
	// a city.
	//
	// This is the parallel proposal pass of the coupled wiring stage: each
	// country's members are disjoint from every other country's, so the
	// countries run concurrently, each on its own split stream with a
	// country-local dedup set and edge list (a pass-1 edge has both
	// endpoints in one country, so cross-country duplicates cannot occur).
	// The per-country results are stitched into the global seen/edges in
	// sorted-country order, which keeps the edge list and every later pass
	// independent of the worker count.
	countryUsers := make(map[int16][]int32)
	for i := 0; i < n; i++ {
		if domestic[i] > 0 {
			c := st.country[i]
			countryUsers[c] = append(countryUsers[c], int32(i))
		}
	}
	countries := make([]int16, 0, len(countryUsers))
	for c := range countryUsers {
		countries = append(countries, c)
	}
	slices.Sort(countries)
	paired := make([]int, n) // per-user edges actually created
	domRem := make([]int, n)
	copy(domRem, domestic)
	countryEdges := make([][]Friendship, len(countries))
	countryPass1 := make([]int, len(countries))
	par.For(cfg.Workers, len(countries), func(ci int) {
		crng := wrng.SplitN("domestic", uint64(ci))
		members := countryUsers[countries[ci]]
		slices.SortFunc(members, st.cmpSocial)
		localSeen := make(map[uint64]struct{}, len(members)*4)
		localEmit := func(a, b int32) bool {
			if a == b {
				return false
			}
			if a > b {
				a, b = b, a
			}
			key := uint64(a)<<32 | uint64(uint32(b))
			if _, dup := localSeen[key]; dup {
				return false
			}
			localSeen[key] = struct{}{}
			countryEdges[ci] = append(countryEdges[ci], Friendship{A: a, B: b})
			return true
		}
		// Several rounds with widening windows: duplicate-edge drops are
		// retried domestically before any stub rolls over to the global
		// pass, keeping the §4.1 domestic share intact.
		for round := 0; round < 3; round++ {
			rem := 0
			for _, m := range members {
				rem += domRem[m]
			}
			if rem < 2 {
				break
			}
			wirePairs(crng, members, domRem, cfg.HomophilyNoise*float64(round*3+1), func(a, b int32) bool {
				if localEmit(a, b) {
					paired[a]++
					paired[b]++
					domRem[a]--
					domRem[b]--
					countryPass1[ci]++
					return true
				}
				return false
			})
		}
	})
	// Stitch the per-country proposals in sorted-country order.
	for ci := range countryEdges {
		for _, e := range countryEdges[ci] {
			seen[uint64(e.A)<<32|uint64(uint32(e.B))] = struct{}{}
		}
		edges = append(edges, countryEdges[ci]...)
		if debugWireStats != nil {
			debugWireStats.Pass1 += countryPass1[ci]
		}
	}

	// Pass 2: global wiring over the social order with whatever stubs
	// remain (the global share plus any domestic stubs the local pass
	// could not pair).
	remaining := make([]int, n)
	order := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		// Pass 1 pairs at most domestic[i] edges, so this is the global
		// share plus any domestic stubs the local pass could not place.
		if r := degrees[i] - paired[i]; r > 0 {
			remaining[i] = r
			order = append(order, int32(i))
		}
	}
	slices.SortFunc(order, st.cmpSocial)
	wirePairs(wrng, order, remaining, cfg.HomophilyNoise, func(a, b int32) bool {
		if emit(a, b) {
			paired[a]++
			paired[b]++
			if debugWireStats != nil {
				debugWireStats.Pass2++
			}
			return true
		}
		return false
	})

	// Repair pass: proximity matching drops stubs to self-pairs and
	// duplicate edges, which would crush the degree tail (a 122-friend
	// user loses far more stubs than a 2-friend user). Re-wire the
	// deficit with random pairing until the residual is negligible.
	repairEmit := func(a, b int32) bool {
		if emit(a, b) {
			paired[a]++
			paired[b]++
			if debugWireStats != nil {
				debugWireStats.Repair++
			}
			return true
		}
		return false
	}
	for round := 0; round < 6; round++ {
		deficitCount := make([]int, n)
		var deficitUsers []int32
		total := 0
		for i := 0; i < n; i++ {
			if d := degrees[i] - paired[i]; d > 0 {
				deficitCount[i] = d
				deficitUsers = append(deficitUsers, int32(i))
				total += d
			}
		}
		if total < 2 {
			break
		}
		before := len(edges)
		if round < 3 {
			// Domestic, homophilous repair: proximity-match the deficit
			// stubs ordered by (country, social latent), widening the
			// window each round.
			slices.SortFunc(deficitUsers, func(a, b int32) int {
				if c := cmp.Compare(st.country[a], st.country[b]); c != 0 {
					return c
				}
				return st.cmpSocial(a, b)
			})
			wirePairs(wrng, deficitUsers, deficitCount, cfg.HomophilyNoise*float64(round+1), repairEmit)
		} else {
			// Random matching to drain whatever is left.
			var stubsLeft []int32
			for _, i := range deficitUsers {
				for d := 0; d < deficitCount[i]; d++ {
					stubsLeft = append(stubsLeft, i)
				}
			}
			wrng.Shuffle(len(stubsLeft), func(i, j int) {
				stubsLeft[i], stubsLeft[j] = stubsLeft[j], stubsLeft[i]
			})
			for i := 0; i+1 < len(stubsLeft); i += 2 {
				repairEmit(stubsLeft[i], stubsLeft[i+1])
			}
		}
		if len(edges) == before {
			break
		}
	}

	// Timestamps: befriending happens after both accounts exist, with an
	// exponential delay, clamped into the observation window. Per-edge
	// independent draws over the stitched (worker-independent) edge order.
	forChunks(cfg.Workers, len(edges), trng, "chunk", func(lo, hi int, chrng *randx.RNG) {
		for i := lo; i < hi; i++ {
			e := &edges[i]
			start := u.Users[e.A].Created
			if c := u.Users[e.B].Created; c > start {
				start = c
			}
			delay := int64(chrng.ExpFloat64() * cfg.FriendDelayMeanDays * 24 * 3600)
			ts := start + delay
			if ts > u.CollectedAt {
				// Befriending would postdate the crawl: place it uniformly
				// within the feasible window instead.
				window := u.CollectedAt - start
				if window <= 0 {
					window = 1
				}
				ts = start + chrng.Int63()%window
			}
			e.Since = ts
		}
	})
	slices.SortFunc(edges, func(a, b Friendship) int { return cmp.Compare(a.Since, b.Since) })
	u.Friendships = edges
}

// wirePairs performs degree-preserving proximity matching: each user in
// ordered contributes stubs[user] stubs laid out in order; every stub gets
// a key equal to its position plus Laplace noise of scale
// noiseFrac*len(stubs); stubs are re-sorted by key and adjacent stubs of
// distinct users are paired. Smaller noise keeps partners closer in the
// given order (stronger homophily). Self-pairs are skipped (one stub is
// dropped); duplicate pairs are the caller's concern.
func wirePairs(rng *randx.RNG, ordered []int32, stubs []int, noiseFrac float64, emit func(a, b int32) bool) {
	total := 0
	for _, uidx := range ordered {
		total += stubs[uidx]
	}
	if total < 2 {
		return
	}
	all := make([]keyRec, 0, total) // (key, user) per stub
	pos := 0
	scale := noiseFrac * float64(total)
	if scale < 12 {
		// Floor the window: with near-zero noise, pairing degenerates to
		// adjacent stubs and interleaved users pair with each other
		// repeatedly — every repeat is a duplicate edge that gets dropped.
		scale = 12
	}
	for _, uidx := range ordered {
		// High-degree users need a wider partner window than the base
		// noise: their own stubs occupy a contiguous block, and pairing
		// within a narrow window would produce mostly duplicate edges
		// (which are dropped, crushing the degree tail).
		s := scale
		if widened := 4 * float64(stubs[uidx]); widened > s {
			s = widened
		}
		for k := 0; k < stubs[uidx]; k++ {
			all = append(all, newKeyRec(float64(pos)+rng.Laplace(s), uint32(uidx)))
			pos++
		}
	}
	sortKeyed(all)
	// Queue drain: consecutive stubs of the same user accumulate and are
	// paired one-by-one with the following distinct-user stubs, so a
	// high-degree user whose stubs cluster in key space still receives
	// its full degree from its nearest neighbours in the ordering.
	var qUser int32
	qCount := 0
	for _, s := range all {
		user := int32(uint32(s.val))
		if qCount == 0 {
			qUser, qCount = user, 1
			continue
		}
		if user == qUser {
			qCount++
			continue
		}
		ok := emit(qUser, user)
		qCount--
		if !ok && qCount == 0 {
			// The queued stub was wasted on a duplicate edge; reuse the
			// current stub so it still gets a chance to pair.
			qUser, qCount = user, 1
		}
	}
}
