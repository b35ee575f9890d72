package simworld

import (
	"fmt"
	"math"
	"slices"

	"steamstudy/internal/dists"
	"steamstudy/internal/randx"
	"steamstudy/internal/steamid"
)

// genState carries the intermediate per-user draws between generation
// stages.
type genState struct {
	cfg Config
	cat *catalogState

	// Latent copula outputs.
	social []float64 // wiring latent (z-score)
	priceU []float64 // price-preference uniform

	// Attribute targets decoded through the marginals.
	friendTarget []int
	gamesTarget  []int
	groupsTarget []int
	totalTarget  []int64 // minutes
	twoWkTarget  []int64 // minutes

	// Location (assigned for every user; only a fraction reports it).
	country []int16 // index into countryCodes
	city    []int16

	countryCodes []string

	// Ownership-derived lookups for the group generator.
	popRank []int32   // popularity rank per game (0 = most popular)
	byRank  []int32   // game index per popularity rank, popRank's inverse
	owners  [][]int32 // owner lists for the top-ranked games
}

// cmpSocial orders users by the social latent.
func (st *genState) cmpSocial(a, b int32) int { return cmpFloat(st.social[a], st.social[b]) }

// generateUsers draws every user's latent attribute vector through the
// Gaussian copula, assigns IDs along the sparse ID space, creation dates
// following the network's exponential growth, persona flags, and location.
func generateUsers(cfg Config, rng *randx.RNG, cat *catalogState, u *Universe) (*genState, error) {
	n := cfg.Users
	st := &genState{
		cfg: cfg, cat: cat,
		social:       make([]float64, n),
		priceU:       make([]float64, n),
		friendTarget: make([]int, n),
		gamesTarget:  make([]int, n),
		groupsTarget: make([]int, n),
		totalTarget:  make([]int64, n),
		twoWkTarget:  make([]int64, n),
		country:      make([]int16, n),
		city:         make([]int16, n),
	}

	// Compile marginals.
	friendsQ, err := cfg.Friends.build()
	if err != nil {
		return nil, err
	}
	gamesQ, err := cfg.GamesOwned.build()
	if err != nil {
		return nil, err
	}
	groupsQ, err := cfg.Groups.build()
	if err != nil {
		return nil, err
	}
	totalQ, err := cfg.TotalPlay.build()
	if err != nil {
		return nil, err
	}
	twoWkQ, err := cfg.TwoWeekPlay.build()
	if err != nil {
		return nil, err
	}

	// Copula over the latent dimensions.
	flat := make([]float64, copulaDim*copulaDim)
	for i := 0; i < copulaDim; i++ {
		for j := 0; j < copulaDim; j++ {
			flat[i*copulaDim+j] = cfg.Spearman[i][j]
		}
	}
	cop, ridge, err := randx.NewCopula(copulaDim, flat)
	if err != nil {
		return nil, fmt.Errorf("simworld: building copula: %w", err)
	}
	if ridge > 0.05 {
		return nil, fmt.Errorf("simworld: correlation matrix needed ridge %v; targets are inconsistent", ridge)
	}

	u.Users = make([]User, n)
	crng := rng.Split("copula")
	prng := rng.Split("persona")
	uFriends := make([]float64, n)
	uGames := make([]float64, n)
	uGroups := make([]float64, n)
	uTotal := make([]float64, n)
	uTwoWk := make([]float64, n)
	// Copula draws are per-user independent: chunk the population, one
	// split stream and one scratch pair per chunk, every write addressed
	// by the user index.
	forChunks(cfg.Workers, n, crng, "chunk", func(lo, hi int, chrng *randx.RNG) {
		z := make([]float64, copulaDim)
		uu := make([]float64, copulaDim)
		for i := lo; i < hi; i++ {
			cop.Sample(chrng, z, uu)
			st.priceU[i] = uu[dimPrice]
			uFriends[i] = uu[dimFriends]
			uGames[i] = uu[dimGames]
			uGroups[i] = uu[dimGroups]
			uTotal[i] = uu[dimTotal]
			uTwoWk[i] = uu[dimTwoWeek]
		}
	})

	// The social (friendship-wiring) latent is a weighted combination of
	// the attribute z-scores rather than a copula dimension: the value
	// proxy folds library size and price preference together the same way
	// account market value does, so value homophily comes out strongest
	// (Fig 11) without violating positive definiteness of the copula.
	w := cfg.SocialWeights
	srng := crng.Split("social-noise")
	forChunks(cfg.Workers, n, srng, "chunk", func(lo, hi int, chrng *randx.RNG) {
		for i := lo; i < hi; i++ {
			zValue := 0.55*dists.NormalQuantile(uGames[i]) + 0.85*dists.NormalQuantile(st.priceU[i])
			st.social[i] = w.Value*zValue/1.0 +
				w.Friends*dists.NormalQuantile(uFriends[i]) +
				w.Total*dists.NormalQuantile(uTotal[i]) +
				w.TwoWeek*dists.NormalQuantile(uTwoWk[i]) +
				w.Groups*dists.NormalQuantile(uGroups[i]) +
				w.Noise*chrng.NormFloat64()
		}
	})

	// Rank-exact marginal assignment. The copula uniforms provide the
	// ranks; the values come from the marginal quantile functions applied
	// to rank positions within the eligible set. This keeps the marginals
	// exact under conditioning: a naive Quantile(u) on the gated subsets
	// would skew, because the copula correlates the uniforms (e.g. owners
	// have systematically high playtime uniforms).
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	recs := make([]keyRec, n) // one record slab serves all five sorts
	rankAssign(all, uFriends, recs, cfg.Friends.ZeroFrac, friendsQ.Tail, func(i int32, v float64) {
		st.friendTarget[i] = int(v + 0.5)
	})
	rankAssign(all, uGames, recs, cfg.GamesOwned.ZeroFrac, gamesQ.Tail, func(i int32, v float64) {
		st.gamesTarget[i] = int(v + 0.5)
	})
	rankAssign(all, uGroups, recs, cfg.Groups.ZeroFrac, groupsQ.Tail, func(i int32, v float64) {
		st.groupsTarget[i] = int(v + 0.5)
	})
	// Playtime is gated on ownership: players are a subset of owners.
	var owners []int32
	for i := 0; i < n; i++ {
		if st.gamesTarget[i] > 0 {
			owners = append(owners, int32(i))
		}
	}
	rankAssign(owners, uTotal, recs, cfg.TotalPlay.ZeroFrac, totalQ.Tail, func(i int32, v float64) {
		st.totalTarget[i] = int64(v + 0.5)
	})
	var players []int32
	for _, i := range owners {
		if st.totalTarget[i] > 0 {
			players = append(players, i)
		}
	}
	rankAssign(players, uTwoWk, recs, cfg.TwoWeekPlay.ZeroFrac, twoWkQ.Tail, func(i int32, v float64) {
		st.twoWkTarget[i] = int64(v + 0.5)
	})

	forChunks(cfg.Workers, n, prng, "chunk", func(lo, hi int, chrng *randx.RNG) {
		for i := lo; i < hi; i++ {
			user := &u.Users[i]
			// Persona flags.
			if chrng.Bool(cfg.FacebookLinkedFrac) {
				user.Persona |= PersonaFacebookLinked
			}
			user.BadgeLevel = uint8(clampInt(chrng.Geometric(cfg.BadgeLevelP), 0, 200))
			if chrng.Bool(cfg.CollectorFrac) {
				user.Persona |= PersonaCollector
				st.gamesTarget[i] = collectorLibrarySize(cfg, chrng)
			}
			if chrng.Bool(cfg.IdlerFrac) {
				user.Persona |= PersonaIdler
				// §6.1: idlers sit at 80-90 % of the 336-hour maximum.
				maxMin := 14.0 * 24 * 60
				st.twoWkTarget[i] = int64(maxMin * (0.8 + 0.1*chrng.Float64()))
				if st.gamesTarget[i] == 0 {
					st.gamesTarget[i] = 1 // something must be left running
				}
			}
			if chrng.Bool(cfg.AchievementHunterFrac) {
				user.Persona |= PersonaAchievementHunter
			}
			if chrng.Bool(cfg.ValveEmployeeFrac) {
				user.Persona |= PersonaValveEmployee
			}
			// Consistency: two-week playtime cannot exceed lifetime playtime.
			// Cap the two-week value (rather than raising the total), which
			// leaves the carefully calibrated total-playtime marginal intact;
			// the high latent total↔two-week correlation keeps violations
			// rare. Idlers are the exception: their extreme fortnight really
			// does push their lifetime total up.
			if st.twoWkTarget[i] > st.totalTarget[i] {
				if user.Persona.Has(PersonaIdler) {
					st.totalTarget[i] = st.twoWkTarget[i]
				} else {
					st.twoWkTarget[i] = st.totalTarget[i]
				}
			}
		}
	})

	assignIDsAndCreation(cfg, rng, u)
	assignLocation(cfg, rng, st, u)
	return st, nil
}

// rankAssign distributes an attribute over the eligible users with an
// exact marginal: the bottom zeroFrac of the eligible set (by copula
// uniform) stays at zero, and the remainder receives tail.Quantile at its
// exact rank position. Values are left untouched for zero-assigned users
// (callers start from zeroed slices). The sort runs on (uniform, user)
// records in recs, which holds at least len(elig).
func rankAssign(elig []int32, u []float64, recs []keyRec, zeroFrac float64, tail *dists.QuantileSpline, set func(i int32, v float64)) {
	m := len(elig)
	if m == 0 {
		return
	}
	recs = recs[:m]
	for j, i := range elig {
		recs[j] = newKeyRec(u[i], uint32(i))
	}
	sortKeyed(recs)
	zeros := int(zeroFrac*float64(m) + 0.5)
	nz := m - zeros
	for j, r := range recs[zeros:] {
		p := (float64(j) + 0.5) / float64(nz)
		set(int32(uint32(r.val)), tail.Quantile(p))
	}
}

// collectorLibrarySize draws a collector's library size: a lognormal bulk
// with the §5 uptick band (1268-1290 games) carved out explicitly.
func collectorLibrarySize(cfg Config, rng *randx.RNG) int {
	if rng.Bool(cfg.CollectorUptickShare) {
		return cfg.CollectorUptickLo + rng.Intn(cfg.CollectorUptickHi-cfg.CollectorUptickLo+1)
	}
	v := int(rng.Lognormal(math.Log(cfg.CollectorMedianGames), 0.65))
	max := cfg.CatalogSize * 9 / 10 // the top collector owned 90.3 % of the catalog
	return clampInt(v, 200, max)
}

// assignIDsAndCreation walks the sequential ID space with the §3.1 density
// profile (sparse early range, dense later) and assigns creation times
// following exponential network growth, preserving the invariant that IDs
// are assigned in creation order.
func assignIDsAndCreation(cfg Config, rng *randx.RNG, u *Universe) {
	n := len(u.Users)
	idrng := rng.Split("ids")

	// Creation times: exponential growth between launch and first crawl.
	// The draws are exchangeable (they are sorted immediately after), but
	// chunked streams still make the sorted sequence worker-independent.
	span := float64(FirstSnapshotEnd - SteamLaunch)
	rate := cfg.UserGrowthRate * span / (365.25 * 24 * 3600) // growth over the full span
	times := make([]int64, n)
	forChunks(cfg.Workers, n, idrng, "times", func(lo, hi int, chrng *randx.RNG) {
		for i := lo; i < hi; i++ {
			// Inverse CDF of a truncated exponential growth density
			// f(t) ∝ e^{rate·t/span}.
			v := chrng.Float64()
			t := math.Log(1+v*(math.Exp(rate)-1)) / rate
			times[i] = SteamLaunch + int64(t*span)
		}
	})
	slices.Sort(times)

	// The account-gap walk is inherently sequential (each ID depends on
	// every gap before it) and cheap; it stays on a single stream.
	grng := idrng.Split("gaps")
	density := steamid.DefaultDensity
	width := density.RangeForAccounts(float64(n))
	acct := uint64(0)
	for i := 0; i < n; i++ {
		u.Users[i].ID = steamid.FromAccountID(uint32(acct))
		u.Users[i].Created = times[i]
		// Advance by a geometric gap matching the local density.
		pos := float64(acct) / float64(width)
		d := density.DensityAt(pos)
		acct++
		for !grng.Bool(d) {
			acct++
		}
	}
}

// assignLocation gives every user a latent country and city. Country
// labels are laid out in contiguous runs over a country-specific shuffle
// so the domestic wiring pass (friendships.go) can target compatriots.
func assignLocation(cfg Config, rng *randx.RNG, st *genState, u *Universe) {
	lrng := rng.Split("location")
	// Build the country code list: Table 1 top-10 plus the synthetic
	// long tail sharing OtherFrac.
	var codes []string
	var weights []float64
	for _, cs := range cfg.Countries {
		codes = append(codes, cs.Code)
		weights = append(weights, cs.Frac)
	}
	// The long tail of countries is Zipf-weighted: most "other" users live
	// in mid-sized countries with viable domestic friend pools, which is
	// essential for the §4.1 domestic-friendship share (uniform tiny
	// countries would force their gamers abroad).
	var otherNorm float64
	for i := 0; i < cfg.OtherCountries; i++ {
		otherNorm += 1 / float64(i+1)
	}
	for i := 0; i < cfg.OtherCountries; i++ {
		codes = append(codes, fmt.Sprintf("X%03d", i))
		weights = append(weights, cfg.OtherFrac/float64(i+1)/otherNorm)
	}
	st.countryCodes = codes
	picker := randx.NewAlias(weights)
	cityZipf := randx.NewZipf(cfg.CitiesPerCountry, 1.0)

	// City Zipf intervals over [0, 1) for the social-bucket assignment.
	cityEdges := make([]float64, cfg.CitiesPerCountry)
	{
		h := 0.0
		for k := 0; k < cfg.CitiesPerCountry; k++ {
			h += 1 / float64(k+1)
		}
		acc := 0.0
		for k := 0; k < cfg.CitiesPerCountry; k++ {
			acc += 1 / float64(k+1) / h
			cityEdges[k] = acc
		}
	}
	cityForSocial := func(z float64) int16 {
		p := randx.NormalCDF(z)
		for k, edge := range cityEdges {
			if p <= edge {
				return int16(k)
			}
		}
		return int16(len(cityEdges) - 1)
	}

	// Intern the full city-name table up front — one backing string for
	// all country×city combinations — so the per-user loop assigns a
	// shared substring instead of formatting a fresh name per reporter.
	var cityArena stringArena
	for _, code := range codes {
		for k := 0; k < cfg.CitiesPerCountry; k++ {
			cityArena.mark()
			cityArena.buf = append(append(cityArena.buf, code...), "-city-"...)
			cityArena.buf = appendPadInt(cityArena.buf, int64(k), 2)
		}
	}
	cityNames := cityArena.strings(nil)
	cityName := func(c, city int16) string {
		return cityNames[int(c)*cfg.CitiesPerCountry+int(city)]
	}

	forChunks(cfg.Workers, len(u.Users), lrng, "chunk", func(lo, hi int, chrng *randx.RNG) {
		for i := lo; i < hi; i++ {
			c := int16(picker.Sample(chrng))
			st.country[i] = c
			// Cities partially track the social latent, so rank-local
			// (domestic) friendships land in the same city at roughly the
			// §4.1 rate without a third wiring pass.
			if chrng.Bool(0.65) {
				st.city[i] = cityForSocial(st.social[i])
			} else {
				st.city[i] = int16(cityZipf.Sample(chrng))
			}
			if chrng.Bool(cfg.CountryReportFrac) {
				u.Users[i].Country = codes[c]
				if chrng.Bool(cfg.CityReportFrac / cfg.CountryReportFrac) {
					u.Users[i].City = cityName(c, st.city[i])
				}
			}
		}
	})
}
