package simworld

import (
	"math"
	"slices"

	"steamstudy/internal/randx"
)

// ownersIndexTop is how many of the most popular games keep an inverted
// owner index (used by the group generator to build game-focused groups).
const ownersIndexTop = 800

// generateOwnership fills every user's library: which games they own
// (popularity-weighted with the user's price tilt), which of those they
// ever played (per-genre unplayed rates, Fig 5), how lifetime and two-week
// minutes distribute across the library (multiplayer-boosted, §6.2), and
// the account's market value (sum of current storefront prices, the §6
// approximation).
func generateOwnership(cfg Config, rng *randx.RNG, st *genState, u *Universe) {
	orng := rng.Split("ownership")
	cat := st.cat
	nGames := len(cat.games)

	// Popularity ranks for the owner index.
	st.popRank = make([]int32, nGames)
	st.byRank = make([]int32, nGames)
	order := make([]int, nGames)
	for i := range order {
		order[i] = i
	}
	sortByDesc(order, cat.popularity)
	for rank, idx := range order {
		st.popRank[idx] = int32(rank)
		st.byRank[rank] = int32(idx)
	}
	st.owners = make([][]int32, ownersIndexTop)

	// Per-game unplayed probability (genre average).
	unplayed := make([]float64, nGames)
	for i := range cat.games {
		unplayed[i] = gameUnplayedFrac(cfg, &cat.games[i])
	}

	// The per-user fill is independent except for the inverted owner index,
	// which is order-sensitive (the group generator walks owner lists).
	// Chunks record (rank, user) pairs locally in visit order; the pairs
	// are replayed into st.owners in chunk order afterwards, which
	// reproduces the sequential append order exactly.
	type ownerPair struct {
		rank int32
		user int32
	}
	n := len(u.Users)
	chunkOwners := make([][]ownerPair, (n+genChunk-1)/genChunk)
	forChunks(cfg.Workers, n, orng, "chunk", func(lo, hi int, chrng *randx.RNG) {
		ci := lo / genChunk
		scratch := make([]int32, 0, 256)
		weights := make([]float64, 0, 256)
		sampler := librarySampler{bits: make([]uint64, (nGames+63)/64)}
		var recent recentScratch
		// One OwnedGame slab per chunk, sliced per user: libraries are the
		// single largest per-user allocation, and the chunk knows its total
		// size up front from the clamped targets.
		slabN := 0
		for ui := lo; ui < hi; ui++ {
			if t := st.gamesTarget[ui]; t > 0 {
				if t > nGames {
					t = nGames
				}
				slabN += t
			}
		}
		slab := make([]OwnedGame, slabN)
		for ui := lo; ui < hi; ui++ {
			user := &u.Users[ui]
			target := st.gamesTarget[ui]
			if target <= 0 {
				continue
			}
			if target > nGames {
				target = nGames
			}
			tier := tierForPriceU(st.priceU[ui])

			lib := sampler.sample(chrng, cat, tier, target, nGames)
			user.Library = slab[:len(lib):len(lib)]
			slab = slab[len(lib):]
			var value int64
			for k, gi := range lib {
				user.Library[k].GameIdx = gi
				value += cat.games[gi].PriceCents
				if r := st.popRank[gi]; int(r) < ownersIndexTop {
					chunkOwners[ci] = append(chunkOwners[ci], ownerPair{rank: r, user: int32(ui)})
				}
			}
			user.ValueCents = value

			// Decide which owned games were ever played.
			playedProb := func(gi int32) float64 { return 1 - unplayed[gi] }
			if user.Persona.Has(PersonaCollector) {
				playedProb = func(int32) float64 { return cfg.CollectorPlayedFrac }
			}
			scratch = scratch[:0]
			for k := range user.Library {
				gi := user.Library[k].GameIdx
				if st.totalTarget[ui] > 0 && chrng.Bool(playedProb(gi)) {
					scratch = append(scratch, int32(k))
				}
			}
			if st.totalTarget[ui] > 0 && len(scratch) == 0 {
				// Playtime exists, so at least one game must carry it.
				scratch = append(scratch, int32(chrng.Intn(len(user.Library))))
			}
			if len(scratch) == 0 {
				continue
			}

			// Lifetime minutes: a "main game" carries most of the playtime —
			// real libraries are dominated by one title — and the main-game
			// choice is multiplayer-biased, which is what actually moves the
			// §6.2 playtime shares (a multiplicative weight boost washes out
			// against heavy-tailed per-game weights).
			main := pickBoosted(chrng, user, scratch, cat.multiplayer, cfg.MultiplayerTotalBoost)
			mainShare := 1.0
			if len(scratch) > 1 {
				mainShare = 0.55 + 0.4*chrng.Float64()
			}
			total := st.totalTarget[ui]
			mainMinutes := int64(float64(total) * mainShare)
			user.Library[main].TotalMinutes = mainMinutes
			if rest := total - mainMinutes; rest > 0 && len(scratch) > 1 {
				weights = weights[:0]
				var wsum float64
				for _, k := range scratch {
					if k == main {
						weights = append(weights, 0)
						continue
					}
					w := chrng.Gamma(0.5)
					if cat.multiplayer[user.Library[k].GameIdx] {
						w *= cfg.MultiplayerTotalBoost
					}
					weights = append(weights, w)
					wsum += w
				}
				if wsum <= 0 {
					user.Library[main].TotalMinutes += rest
				} else {
					var assigned int64
					for wi, k := range scratch {
						m := int64(float64(rest) * weights[wi] / wsum)
						user.Library[k].TotalMinutes += m
						assigned += m
					}
					user.Library[main].TotalMinutes += rest - assigned
				}
			}
			// Every played game records at least one minute.
			for _, k := range scratch {
				if user.Library[k].TotalMinutes < 1 {
					user.Library[k].TotalMinutes = 1
				}
			}

			// Two-week minutes: concentrated on 1-3 recently played titles,
			// preferring the user's high-lifetime and multiplayer games.
			if tw := st.twoWkTarget[ui]; tw > 0 {
				nRecent := 1 + chrng.Poisson(0.9)
				if nRecent > len(scratch) {
					nRecent = len(scratch)
				}
				// Select "recent" games by weighted sampling without
				// replacement from the played set, multiplayer-boosted; the
				// first selected game dominates the fortnight.
				sel := selectRecent(chrng, user, scratch, cat, cfg, nRecent, &recent)
				weights = weights[:0]
				var wsum float64
				for wi := range sel {
					w := chrng.Gamma(0.8) + 0.05
					if wi == 0 {
						w += 2.5 // dominant recent title
					}
					weights = append(weights, w)
					wsum += w
				}
				var assignedTW int64
				for wi, k := range sel {
					m := int64(float64(tw) * weights[wi] / wsum)
					if m > int64(math.MaxInt32) {
						m = int64(math.MaxInt32)
					}
					user.Library[k].TwoWeekMinutes = int32(m)
					assignedTW += m
				}
				user.Library[sel[0]].TwoWeekMinutes += int32(tw - assignedTW)
				// A game cannot have more two-week than lifetime minutes.
				for _, k := range sel {
					if g := &user.Library[k]; int64(g.TwoWeekMinutes) > g.TotalMinutes {
						g.TotalMinutes = int64(g.TwoWeekMinutes)
					}
				}
			}

			// Cache the sums.
			var tsum, twsum int64
			for k := range user.Library {
				tsum += user.Library[k].TotalMinutes
				twsum += int64(user.Library[k].TwoWeekMinutes)
			}
			user.TotalMinutes = tsum
			user.TwoWeekMinutes = twsum
		}
	})
	// Stitch the owner index in chunk order == user order. Counting first
	// sizes every per-rank list exactly, avoiding append regrowth across
	// hundreds of thousands of entries.
	rankCounts := make([]int, ownersIndexTop)
	for _, pairs := range chunkOwners {
		for _, p := range pairs {
			rankCounts[p.rank]++
		}
	}
	for r, c := range rankCounts {
		if c > 0 {
			st.owners[r] = make([]int32, 0, c)
		}
	}
	for _, pairs := range chunkOwners {
		for _, p := range pairs {
			st.owners[p.rank] = append(st.owners[p.rank], p.user)
		}
	}
}

// pickBoosted selects one played entry uniformly except that multiplayer
// titles carry `boost` times the weight.
func pickBoosted(rng *randx.RNG, user *User, played []int32, mp []bool, boost float64) int32 {
	var wsum float64
	for _, k := range played {
		if mp[user.Library[k].GameIdx] {
			wsum += boost
		} else {
			wsum++
		}
	}
	u := rng.Float64() * wsum
	for _, k := range played {
		w := 1.0
		if mp[user.Library[k].GameIdx] {
			w = boost
		}
		u -= w
		if u <= 0 {
			return k
		}
	}
	return played[len(played)-1]
}

// recentScratch is per-chunk reusable state for selectRecent. The
// returned selection aliases the scratch and is consumed before the next
// call.
type recentScratch struct {
	cands []recentCand
	out   []int32
}

type recentCand struct {
	k   int32
	key float64
}

// selectRecent picks n entries from the played set, biased toward
// multiplayer games and games with large lifetime playtime — the titles a
// user is most likely to have touched in the last two weeks.
func selectRecent(rng *randx.RNG, user *User, played []int32, cat *catalogState, cfg Config, n int, sc *recentScratch) []int32 {
	if n >= len(played) {
		sc.out = append(sc.out[:0], played...)
		return sc.out
	}
	cands := append(sc.cands[:0], make([]recentCand, len(played))...)
	sc.cands = cands
	for i, k := range played {
		gi := user.Library[k].GameIdx
		w := float64(user.Library[k].TotalMinutes) + 30
		if cat.multiplayer[gi] {
			w *= cfg.MultiplayerTwoWeekBoost
		}
		// Weighted sampling without replacement via exponential keys
		// (Efraimidis–Spirakis): the n smallest Exp(1)/w keys win.
		cands[i] = recentCand{k: k, key: rng.ExpFloat64() / w}
	}
	// Partial selection of the n smallest keys.
	for i := 0; i < n; i++ {
		min := i
		for j := i + 1; j < len(cands); j++ {
			if cands[j].key < cands[min].key {
				min = j
			}
		}
		cands[i], cands[min] = cands[min], cands[i]
	}
	sc.out = sc.out[:0]
	for i := 0; i < n; i++ {
		sc.out = append(sc.out, cands[i].k)
	}
	return sc.out
}

// librarySampler holds the dedup bitset and output scratch for
// sampleLibrary calls within one chunk. The bitset replaces a per-user
// map (the generator's former top allocation site); set bits are cleared
// through the output list after every draw, so the cost stays
// proportional to the library, not the catalog.
type librarySampler struct {
	bits []uint64
	out  []int32
}

func (s *librarySampler) has(gi int32) bool {
	return s.bits[gi>>6]&(1<<(uint(gi)&63)) != 0
}

func (s *librarySampler) add(gi int32) {
	s.bits[gi>>6] |= 1 << (uint(gi) & 63)
	s.out = append(s.out, gi)
}

// sample draws target distinct games with the tier's price-tilted
// popularity weights; very large libraries (collectors) fall back to a
// uniform subset since they approach the whole catalog anyway. The
// returned slice aliases the sampler's scratch and is consumed before
// the next call. The draw sequence is identical to the historical
// map-based implementation (membership outcomes are the same, so the
// retry loop consumes the same variates).
func (s *librarySampler) sample(rng *randx.RNG, cat *catalogState, tier, target, nGames int) []int32 {
	s.out = s.out[:0]
	if target*4 >= nGames {
		perm := rng.Perm(nGames)
		for i := 0; i < target; i++ {
			s.out = append(s.out, int32(perm[i]))
		}
		return s.out
	}
	defer func() {
		for _, gi := range s.out {
			s.bits[gi>>6] &^= 1 << (uint(gi) & 63)
		}
	}()
	picker := cat.tiltedPickers[tier]
	misses := 0
	for len(s.out) < target {
		gi := int32(picker.Sample(rng))
		if s.has(gi) {
			misses++
			if misses > 40*target+400 {
				// Pathological collision rate (tiny effective catalog):
				// fill the remainder uniformly.
				for len(s.out) < target {
					gi := int32(rng.Intn(nGames))
					if !s.has(gi) {
						s.add(gi)
					}
				}
				return s.out
			}
			continue
		}
		s.add(gi)
	}
	return s.out
}

// tierForPriceU maps the price-preference uniform to a tilt tier.
func tierForPriceU(u float64) int {
	t := int(u * tiltTiers)
	if t >= tiltTiers {
		t = tiltTiers - 1
	}
	return t
}

// gameUnplayedFrac averages the genre unplayed rates for a game's labels.
func gameUnplayedFrac(cfg Config, g *Game) float64 {
	sum, n := 0.0, 0
	for _, spec := range cfg.Genres {
		if g.Genres.Has(spec.Genre) {
			sum += spec.UnplayedFrac
			n++
		}
	}
	if n == 0 {
		return 0.3
	}
	return sum / float64(n)
}

// sortByDesc sorts idx by descending score.
func sortByDesc(idx []int, score []float64) {
	slices.SortFunc(idx, func(a, b int) int { return cmpFloat(score[b], score[a]) })
}
