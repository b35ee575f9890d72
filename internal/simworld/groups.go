package simworld

import (
	"cmp"
	"math"
	"slices"
	"strconv"

	"steamstudy/internal/randx"
)

// generateGroups creates the community groups: heavy-tailed sizes, the
// Table 2 type mix among the largest groups, and membership assignment
// that honors each user's copula-drawn group count. Game Server and
// Single Game groups organize around a focal game and recruit
// preferentially among its owners, which is what gives Fig 3 its two
// regimes (focused groups playing few distinct games vs. communities
// playing hundreds).
func generateGroups(cfg Config, rng *randx.RNG, st *genState, u *Universe) {
	grng := rng.Split("groups")
	nUsers := len(u.Users)
	nGroups := int(float64(nUsers)*cfg.GroupsPerUserRatio + 0.5)
	if nGroups < 4 {
		nGroups = 4
	}

	// Total membership stubs from the user side.
	remaining := make([]int, nUsers)
	totalStubs := 0
	for i := 0; i < nUsers; i++ {
		remaining[i] = st.groupsTarget[i]
		totalStubs += remaining[i]
	}
	stubUsers := make([]int32, 0, totalStubs)
	for i := 0; i < nUsers; i++ {
		for s := 0; s < remaining[i]; s++ {
			stubUsers = append(stubUsers, int32(i))
		}
	}
	grng.Shuffle(len(stubUsers), func(i, j int) {
		stubUsers[i], stubUsers[j] = stubUsers[j], stubUsers[i]
	})

	// Heavy-tailed group sizes scaled to consume the stubs. The Pareto
	// draw is bounded: with α < 2 the unbounded version has infinite mean
	// and a single mega-group would swallow every membership stub. The
	// bound mirrors reality — the largest Steam groups hold roughly half
	// a percent of all accounts.
	maxSize := float64(nUsers) / 20
	if maxSize < 10 {
		maxSize = 10
	}
	// Per-group size draws are independent: chunked streams, summed after.
	raw := make([]float64, nGroups)
	forChunks(cfg.Workers, nGroups, grng, "sizes", func(lo, hi int, chrng *randx.RNG) {
		for g := lo; g < hi; g++ {
			raw[g] = chrng.BoundedPareto(cfg.GroupSizeAlpha, 1, maxSize)
		}
	})
	var rawSum float64
	for _, r := range raw {
		rawSum += r
	}
	sizes := make([]int, nGroups)
	for g := range sizes {
		s := int(raw[g] / rawSum * float64(totalStubs))
		if s < 1 {
			s = 1
		}
		sizes[g] = s
	}
	order := make([]int, nGroups)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(sizes[b], sizes[a]) })

	// Assign types: Table 2 mix for the top 250 (scaled down for small
	// universes), the small-group mix below.
	topN := 250
	if topN > nGroups/2 {
		topN = nGroups / 2
	}
	topPicker := typePicker(cfg.Top250Mix)
	smallPicker := typePicker(cfg.SmallGroupMix)
	focalZipf := randx.NewZipf(ownersIndexTop, 0.45)

	// Type and focal-game proposal pass: per-rank draws are independent
	// (each rank writes only its own group), so chunk over the size-sorted
	// rank order; membership fill below is the sequential reconciliation.
	u.Groups = make([]Group, nGroups)
	forChunks(cfg.Workers, nGroups, grng, "type", func(lo, hi int, chrng *randx.RNG) {
		var nbuf []byte
		for rank := lo; rank < hi; rank++ {
			g := order[rank]
			grp := &u.Groups[g]
			grp.ID = uint64(103582791429521408 + g) // Steam group IDs live in their own 64-bit space
			var t GroupType
			if rank < topN {
				t = topPicker.sample(chrng)
			} else {
				t = smallPicker.sample(chrng)
			}
			grp.Type = t
			grp.FocalGame = -1
			if t == GroupGameServer || t == GroupSingleGame {
				// Organize around a popular game (popularity-rank Zipf).
				// Game Server groups host dedicated servers, so their focal
				// game must be multiplayer; realigning member playtime onto
				// these titles is part of what drives the §6.2 multiplayer
				// playtime share.
				for try := 0; try < 12; try++ {
					pr := focalZipf.Sample(chrng)
					if pr >= len(st.owners) || len(st.owners[pr]) == 0 {
						continue
					}
					gi := st.byRank[pr]
					if t == GroupGameServer && !u.Games[gi].Multiplayer {
						continue
					}
					grp.FocalGame = gi
					break
				}
			}
			nbuf = append(append(nbuf[:0], grp.Type.String()...), " group "...)
			nbuf = strconv.AppendInt(nbuf, int64(g), 10)
			grp.Name = string(nbuf)
		}
	})

	// Fill memberships, largest groups first so focal recruitment has the
	// widest owner pools available.
	stubPos := 0
	nextStub := func() (int32, bool) {
		for stubPos < len(stubUsers) {
			uidx := stubUsers[stubPos]
			stubPos++
			if remaining[uidx] > 0 {
				return uidx, true
			}
		}
		return 0, false
	}
	// memberStamp[u] == rank+1 while u is a member of the group being
	// filled at that size rank: the stamp moves on with each group, so the
	// set needs no clearing.
	memberStamp := make([]int32, nUsers)
	hardcore := make([]bool, nGroups)
	clanMember := make([]bool, nUsers) // users already in a hardcore clan
	// All member lists live in one slab carved per group (cap = the
	// group's size draw; a group only falls short on stub exhaustion, so
	// the waste is bounded and the per-group appends never reallocate).
	sumSizes := 0
	for _, s := range sizes {
		sumSizes += s
	}
	memberSlab := make([]int32, sumSizes)
	slabOff := 0
	var deferred []int32
	for rank, g := range order {
		grp := &u.Groups[g]
		want := sizes[g]
		stamp := int32(rank + 1)
		deferred = deferred[:0]
		grp.Members = memberSlab[slabOff : slabOff : slabOff+want]
		slabOff += want
		// A minority of focal groups are hardcore clans recruiting almost
		// exclusively among the focal game's owners — the source of
		// Fig 3's "members devote >=90 % of playtime to one game" regime.
		focusProb := cfg.GroupFocusProb
		tries := 4
		// Hardcore clans stay small enough that the focal game's owner
		// pool can actually fill them; giant groups would be diluted by
		// the random fallback below.
		if grp.FocalGame >= 0 && want <= 800 && grng.Bool(0.16) {
			focusProb = 0.995
			tries = 16
			hardcore[g] = true
		}
		for len(grp.Members) < want {
			var uidx int32
			found := false
			if grp.FocalGame >= 0 && grng.Bool(focusProb) {
				// Recruit among owners of the focal game. Hardcore clans
				// recruit owners even when those users have exhausted
				// their membership budget — dedicated players join their
				// clan's group regardless — which costs a small, bounded
				// distortion of the membership marginal.
				pool := st.owners[st.popRank[grp.FocalGame]]
				for try := 0; try < tries; try++ {
					cand := pool[grng.Intn(len(pool))]
					if remaining[cand] > 0 || hardcore[g] {
						if memberStamp[cand] == stamp {
							continue
						}
						// A player belongs to at most one hardcore clan:
						// overlapping clans would steal each other's
						// members' loyalty and dilute every clan's
						// playtime focus.
						if hardcore[g] && clanMember[cand] {
							continue
						}
						uidx, found = cand, true
						break
					}
				}
			}
			if !found {
				cand, ok := nextStub()
				if !ok {
					break // user stubs exhausted
				}
				if memberStamp[cand] == stamp {
					// Already a member of this group: the stub stays valid
					// and is re-queued for a later group.
					deferred = append(deferred, cand)
					continue
				}
				uidx, found = cand, true
			}
			if !found {
				break
			}
			memberStamp[uidx] = stamp
			grp.Members = append(grp.Members, uidx)
			remaining[uidx]--
			if hardcore[g] {
				clanMember[uidx] = true
			}
		}
		stubUsers = append(stubUsers, deferred...)
	}

	// Record per-user group lists, slab-backed: count memberships per
	// user, carve one slice each, then fill in group order (the same
	// append order as the naive loop).
	perUser := make([]int32, nUsers)
	totalMembers := 0
	for g := range u.Groups {
		for _, m := range u.Groups[g].Members {
			perUser[m]++
		}
		totalMembers += len(u.Groups[g].Members)
	}
	groupSlab := make([]int32, totalMembers)
	off := 0
	for i := 0; i < nUsers; i++ {
		if c := int(perUser[i]); c > 0 {
			u.Users[i].Groups = groupSlab[off : off : off+c]
			off += c
		}
	}
	for g := range u.Groups {
		for _, m := range u.Groups[g].Members {
			u.Users[m].Groups = append(u.Users[m].Groups, int32(g))
		}
	}

	alignFocalPlaytime(cfg, grng, u, hardcore)
}

// alignFocalPlaytime concentrates the playtime of game-server and
// single-game group members onto their group's focal game: people join a
// Counter-Strike server group because Counter-Strike is what they play.
// This is what produces Fig 3's focused regime (the paper found 4.97 % of
// large groups with >= 90 % of member playtime on one game). Each user's
// total minutes are preserved — minutes only move between that user's own
// library entries — so the calibrated playtime marginals are untouched.
func alignFocalPlaytime(cfg Config, rng *randx.RNG, u *Universe, hardcore []bool) {
	// Ordinary focal groups first, hardcore clans last: a user in several
	// focal groups keeps the alignment of the most dedicated one.
	order := make([]int, 0, len(u.Groups))
	for gi := range u.Groups {
		if !hardcore[gi] {
			order = append(order, gi)
		}
	}
	for gi := range u.Groups {
		if hardcore[gi] {
			order = append(order, gi)
		}
	}
	claimed := make([]bool, len(u.Users)) // users already hardcore-aligned
	for _, gi := range order {
		grp := &u.Groups[gi]
		if grp.FocalGame < 0 {
			continue
		}
		// Hardcore clans realign nearly every member onto nearly all of
		// their playtime; ordinary focal groups only a share.
		dedication := 0.35 + 0.4*rng.Float64()
		shareLo, shareHi := 0.65, 0.90
		if hardcore[gi] {
			dedication = 0.999
			shareLo, shareHi = 0.975, 0.998
		}
		for _, m := range grp.Members {
			if !rng.Bool(dedication) {
				continue
			}
			if hardcore[gi] {
				if claimed[m] {
					continue // a member's first clan keeps their loyalty
				}
				claimed[m] = true
			} else if claimed[m] {
				continue
			}
			user := &u.Users[m]
			// Find the focal game in the member's library.
			focal := -1
			for k := range user.Library {
				if user.Library[k].GameIdx == grp.FocalGame {
					focal = k
					break
				}
			}
			if focal == -1 || user.TotalMinutes == 0 {
				continue
			}
			// The member's recent play moves with them: their whole
			// two-week playtime lands on the clan game (otherwise the
			// lifetime >= two-week invariant would pin their old minutes
			// on other titles).
			if user.TwoWeekMinutes > 0 {
				for k := range user.Library {
					user.Library[k].TwoWeekMinutes = 0
				}
				tw := user.TwoWeekMinutes
				if tw > int64(math.MaxInt32) {
					tw = int64(math.MaxInt32)
				}
				user.Library[focal].TwoWeekMinutes = int32(tw)
			}
			// Move a large share of the user's minutes onto the focal
			// game, scaling the rest down proportionally.
			share := shareLo + (shareHi-shareLo)*rng.Float64()
			total := user.TotalMinutes
			focalMinutes := int64(float64(total) * share)
			rest := total - focalMinutes
			var otherSum int64
			for k := range user.Library {
				if k != focal {
					otherSum += user.Library[k].TotalMinutes
				}
			}
			if otherSum > 0 {
				var assigned int64
				for k := range user.Library {
					if k == focal {
						continue
					}
					nm := user.Library[k].TotalMinutes * rest / otherSum
					// Keep the played/unplayed split: played games keep
					// at least a minute.
					if user.Library[k].TotalMinutes > 0 && nm < 1 {
						nm = 1
					}
					if tw := int64(user.Library[k].TwoWeekMinutes); nm < tw {
						nm = tw // per-game invariant: lifetime >= two-week
					}
					user.Library[k].TotalMinutes = nm
					assigned += nm
				}
				focalMinutes = total - assigned
			}
			if focalMinutes < int64(user.Library[focal].TwoWeekMinutes) {
				focalMinutes = int64(user.Library[focal].TwoWeekMinutes)
			}
			user.Library[focal].TotalMinutes = focalMinutes
			// Restore the exact cached total.
			var sum int64
			for k := range user.Library {
				sum += user.Library[k].TotalMinutes
			}
			user.TotalMinutes = sum
		}
	}
}

// groupTypePicker samples GroupTypes from a weight map with a stable
// ordering.
type groupTypePicker struct {
	types []GroupType
	alias *randx.Alias
}

func typePicker(mix map[GroupType]float64) groupTypePicker {
	var p groupTypePicker
	var weights []float64
	for t := GroupType(0); t < groupTypeCount; t++ {
		if w, ok := mix[t]; ok && w > 0 {
			p.types = append(p.types, t)
			weights = append(weights, w)
		}
	}
	p.alias = randx.NewAlias(weights)
	return p
}

func (p groupTypePicker) sample(rng *randx.RNG) GroupType {
	return p.types[p.alias.Sample(rng)]
}
