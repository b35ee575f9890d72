package simworld

import (
	"math"
	"slices"
	"strconv"

	"steamstudy/internal/dists"
	"steamstudy/internal/par"
	"steamstudy/internal/randx"
)

// catalogState carries catalog-derived lookup structures used by later
// generation stages.
type catalogState struct {
	games []Game
	// popularity holds the raw ownership weight of every game.
	popularity []float64
	// tiltedPickers sample games with the per-user price tilt applied;
	// tier i corresponds to tilt tiltLevels[i].
	tiltedPickers []*randx.Alias
	tiltLevels    []float64
	// multiplayerIdx marks multiplayer games for the playtime split.
	multiplayer []bool
}

// tiltTiers quantizes the per-user price preference into a small number of
// precomputed alias tables (sampling with a continuous tilt would require
// one table per user).
const tiltTiers = 5

// generateCatalog builds the product catalog: genre labels with the Fig 5
// mix, lognormal prices, the §6.2 multiplayer share, quality-driven
// popularity, and §9 achievement lists.
func generateCatalog(cfg Config, rng *randx.RNG) *catalogState {
	n := cfg.CatalogSize
	st := &catalogState{
		games:       make([]Game, n),
		popularity:  make([]float64, n),
		multiplayer: make([]bool, n),
	}
	// Per-game draws are independent: chunk the catalog, one split stream
	// per chunk, each chunk writing only its own games.
	forChunks(cfg.Workers, n, rng, "game", func(lo, hi int, crng *randx.RNG) {
		var nbuf []byte
		for i := lo; i < hi; i++ {
			g := &st.games[i]
			g.AppID = uint32(10 + i*10) // Steam AppIDs are sparse multiples of 10
			nbuf = appendPadInt(append(nbuf[:0], "Game "...), int64(i), 5)
			g.Name = string(nbuf)
			g.Type = productTypeFor(crng)
			g.ReleaseYear = 2003 + crng.Intn(11)
			// paper: 1,201 publishers
			nbuf = appendPadInt(append(nbuf[:0], "Studio "...), int64(crng.Intn(1201)), 3)
			g.Developer = string(nbuf)
			g.Quality = crng.NormFloat64()

			// Genre labels, multiplayer flags and prices are dealt
			// stratified once the quality/popularity orders are known (see
			// dealGenres/dealStratified below).

			if crng.Bool(0.45) {
				g.Metacritic = clampInt(int(72+10*g.Quality+6*crng.NormFloat64()), 20, 98)
			}
		}
	})

	// Quality order drives both the genre deal and the popularity Zipf.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		return cmpFloat(st.games[b].Quality, st.games[a].Quality)
	})

	dealGenres(cfg, rng.Split("genres"), st, order)

	// Popularity: Zipf over quality rank, boosted per genre, so the most
	// owned genres match Fig 5 (Action far ahead, then Strategy, Indie).
	for rank, idx := range order {
		w := math.Pow(float64(rank+1), -cfg.PopularityZipf)
		boost := 1.0
		for _, spec := range cfg.Genres {
			if st.games[idx].Genres.Has(spec.Genre) {
				boost *= spec.PopularityBoost
			}
		}
		st.popularity[idx] = w * boost
	}

	dealStratified(cfg, rng.Split("deal"), st)

	generateAchievements(cfg, rng, st)

	// Precompute tilted alias pickers: weight^tilt applied to price. The
	// tiers are independent (no randomness, disjoint slots), so build
	// them on the pool.
	st.tiltLevels = make([]float64, tiltTiers)
	st.tiltedPickers = make([]*randx.Alias, tiltTiers)
	par.For(cfg.Workers, tiltTiers, func(t int) {
		// Tilts spread across ±2.5: a wide spread of per-user average
		// price is what decouples account market value from raw library
		// size (the paper's value homophily ρ=.77 far exceeds its
		// games-owned homophily ρ=.45, which requires this decoupling).
		tilt := (float64(t)/(tiltTiers-1)*2 - 1) * 2.0
		st.tiltLevels[t] = tilt
		weights := make([]float64, n)
		for i := range weights {
			price := float64(st.games[i].PriceCents)/100 + 2 // +2 keeps free games samplable
			weights[i] = st.popularity[i] * math.Exp(tilt*math.Log(price))
		}
		st.tiltedPickers[t] = randx.NewAlias(weights)
	})
	return st
}

// dealGenres assigns genre labels stratified over the quality order:
// every 16-game quality block holds each genre's exact catalog share
// (random WITHIN the block). Quality rank is what the popularity Zipf
// runs over, so independent per-game Bernoulli labels would let the
// genre mix of the handful of top titles — which dominate the Fig 5/
// Fig 9 genre playtime shares — drift by tens of percent between seeds.
func dealGenres(cfg Config, rng *randx.RNG, st *catalogState, qorder []int) {
	n := len(st.games)
	const block = 16
	for _, spec := range cfg.Genres {
		grng := rng.SplitN("genre", uint64(spec.Genre))
		assigned := 0
		for lo := 0; lo < n; lo += block {
			hi := lo + block
			if hi > n {
				hi = n
			}
			want := int(spec.CatalogFrac*float64(hi)+0.5) - assigned
			if want > hi-lo {
				want = hi - lo
			}
			if want < 0 {
				want = 0
			}
			slots := grng.Perm(hi - lo)
			for k := 0; k < want; k++ {
				st.games[qorder[lo+slots[k]]].Genres |= spec.Genre
			}
			assigned += want
		}
	}
	// Ensure at least one label.
	frng := rng.Split("fallback")
	for i := range st.games {
		if st.games[i].Genres == 0 {
			st.games[i].Genres |= cfg.Genres[frng.Intn(len(cfg.Genres))].Genre
		}
	}
}

// dealStratified assigns the per-game attributes that the universe-level
// calibration statistics are common-mode sensitive to — the §6.2
// multiplayer flags and the storefront prices — stratified over the
// popularity order. Independent per-game draws would leave those
// statistics at the mercy of a handful of draws: focal-group alignment,
// main-game selection and popularity-weighted library sampling funnel
// playtime and spending onto the top-popularity titles, so whether ranks
// 1-5 happen to be multiplayer (or cost $79 instead of $5) swings the
// multiplayer playtime share and the account-value percentiles by tens
// of percent between seeds. Stratification keeps the marginals exact
// while pinning every popularity stratum to a representative mix.
func dealStratified(cfg Config, rng *randx.RNG, st *catalogState) {
	n := len(st.games)
	porder := make([]int, n)
	for i := range porder {
		porder[i] = i
	}
	sortByDesc(porder, st.popularity)
	const block = 16

	// Multiplayer: every block holds its exact share of multiplayer
	// titles, with a largest-remainder running target so the cumulative
	// count is round(frac·hi) at every block boundary. WITHIN a block the
	// slots go preferentially to the genres that actually ship
	// multiplayer on Steam — Action, MMO and free-to-play — via weighted
	// sampling without replacement. The §6.2 playtime funnel
	// (MultiplayerTotalBoost, game-server clans) follows the multiplayer
	// flags, so this coupling is what routes the funnel onto Action
	// titles the way Fig 9's genre playtime shares demand.
	mpAffinity := func(g *Game) float64 {
		w := 1.0
		if g.Genres.Has(GenreAction) {
			w *= 3
		}
		if g.Genres.Has(GenreMMO) {
			w *= 8
		}
		if g.Genres.Has(GenreFreeToPlay) {
			w *= 2
		}
		return w
	}
	mrng := rng.Split("multiplayer")
	assigned := 0
	for lo := 0; lo < n; lo += block {
		hi := lo + block
		if hi > n {
			hi = n
		}
		want := int(cfg.MultiplayerFrac*float64(hi)+0.5) - assigned
		if want > hi-lo {
			want = hi - lo
		}
		if want < 0 {
			want = 0
		}
		// Efraimidis–Spirakis: the `want` smallest Exp(1)/w keys win.
		type slotKey struct {
			gi  int
			key float64
		}
		keys := make([]slotKey, hi-lo)
		for k := range keys {
			gi := porder[lo+k]
			keys[k] = slotKey{gi: gi, key: mrng.ExpFloat64() / mpAffinity(&st.games[gi])}
		}
		slices.SortFunc(keys, func(a, b slotKey) int { return cmpFloat(a.key, b.key) })
		for k := 0; k < want; k++ {
			st.games[keys[k].gi].Multiplayer = true
			st.multiplayer[keys[k].gi] = true
		}
		assigned += want
	}

	// Prices: Latin-hypercube over the price distribution — each block
	// receives one jittered uniform per stratum of the price quantile
	// scale, shuffled within the block, so every popularity stratum sees
	// the full cheap-to-expensive spread while the lognormal marginal,
	// the free-to-play share and the x.99 convention stay exact.
	// Genre-flagged free-to-play titles stay free regardless of the slot
	// they are dealt.
	prng := rng.Split("price")
	for lo := 0; lo < n; lo += block {
		hi := lo + block
		if hi > n {
			hi = n
		}
		bl := hi - lo
		slots := prng.Perm(bl)
		for k := 0; k < bl; k++ {
			g := &st.games[porder[lo+slots[k]]]
			u := (float64(k) + prng.Float64()) / float64(bl)
			if g.Genres.Has(GenreFreeToPlay) || u < cfg.FreeFrac {
				g.PriceCents = 0
				g.Genres |= GenreFreeToPlay
				continue
			}
			// Remap the remaining quantile range onto the lognormal.
			v := (u - cfg.FreeFrac) / (1 - cfg.FreeFrac)
			dollars := math.Exp(cfg.PriceMeanLog + cfg.PriceSigmaLog*dists.NormalQuantile(v))
			if dollars > cfg.PriceMax {
				dollars = cfg.PriceMax
			}
			whole := math.Floor(dollars)
			if whole < 1 {
				whole = 1
			}
			g.PriceCents = int64(whole)*100 - 1 // x.99 pricing
		}
	}
}

func productTypeFor(rng *randx.RNG) ProductType {
	// The paper's 6,156 "products" include non-game entries; keep a small
	// share of DLC/demo/video items (they carry genres and prices too).
	u := rng.Float64()
	switch {
	case u < 0.86:
		return ProductGame
	case u < 0.94:
		return ProductDLC
	case u < 0.98:
		return ProductDemo
	default:
		return ProductVideo
	}
}

// generateAchievements fills each game's achievement list per §9: ~22 % of
// games offer none; counts are lognormal (mode 12, median 24, mean 33)
// with a popularity loading inside the 1-90 band — bigger games invest in
// more achievements — which produces the paper's moderate correlation
// between achievements offered and cumulative playtime; a small "spam"
// population offers 90+ (up to 1,629) achievements on unpopular titles.
func generateAchievements(cfg Config, rng *randx.RNG, st *catalogState) {
	// Standardize log-popularity: the loading operates on a z-score so
	// the count marginal stays centered regardless of catalog size.
	var mean, sd float64
	logw := make([]float64, len(st.games))
	for i, w := range st.popularity {
		logw[i] = math.Log(w)
		mean += logw[i]
	}
	mean /= float64(len(logw))
	for _, lw := range logw {
		d := lw - mean
		sd += d * d
	}
	sd = math.Sqrt(sd / float64(len(logw)))
	if sd == 0 {
		sd = 1
	}
	// Pass 1 (chunked): decide each game's achievement count. Spam titles
	// get a placeholder count here; the actual spam counts are re-dealt
	// against popularity below.
	counts := make([]int, len(st.games))
	forChunks(cfg.Workers, len(st.games), rng, "ach", func(lo, hi int, crng *randx.RNG) {
		for i := lo; i < hi; i++ {
			g := &st.games[i]
			if g.Type != ProductGame {
				continue
			}
			zPop := (logw[i] - mean) / sd
			var count int
			switch {
			case crng.Bool(cfg.AchievementsNoneFrac):
				count = 0
			case crng.Bool(cfg.AchievementSpamFrac):
				// Achievement-spam titles: many achievements, low quality.
				count = 91 + int(crng.BoundedPareto(1.6, 1, float64(cfg.AchievementsMax-90)))
				if count > cfg.AchievementsMax {
					count = cfg.AchievementsMax
				}
				g.Quality -= 1.2 // these are low-effort titles
			default:
				scale := 1.0
				for _, spec := range cfg.Genres {
					if g.Genres.Has(spec.Genre) {
						scale *= spec.AchievementScale
					}
				}
				mu := cfg.AchievementsMedLog + cfg.AchievementsQualityB*zPop + math.Log(scale)
				count = int(math.Exp(mu + cfg.AchievementsSigmaLog*crng.NormFloat64()))
				// Ordinary games stay in the 1-90 band (only spam titles go
				// beyond). Redraw rather than clamp: clamping would pile an
				// artificial mode at 90.
				for tries := 0; count > 90 && tries < 6; tries++ {
					count = int(math.Exp(mu + cfg.AchievementsSigmaLog*crng.NormFloat64()))
				}
				if count > 90 {
					count = 12 + crng.Intn(60)
				}
				if count < 1 {
					count = 1
				}
			}
			counts[i] = count
		}
	})

	dealSpamCounts(rng.Split("spam-deal"), st, counts)

	// Pass 2 (chunked): build the achievement lists from the final counts.
	forChunks(cfg.Workers, len(st.games), rng, "ach-lists", func(lo, hi int, crng *randx.RNG) {
		var sc achScratch
		for i := lo; i < hi; i++ {
			if counts[i] > 0 {
				st.games[i].Achievements = makeAchievementList(cfg, crng, &st.games[i], counts[i], &sc)
			}
		}
	})
}

// dealSpamCounts re-deals the spam titles' achievement counts (>90)
// against their popularity ranks through a permutation chosen for
// near-zero rank correlation. The paper's §9 finding is that playtime
// and achievements offered are uncorrelated beyond 90 achievements;
// with only ~1 % of the catalog in the spam band, an independent random
// pairing has a rank-correlation standard error of ~0.3 and would
// reproduce that fact only by seed luck.
func dealSpamCounts(rng *randx.RNG, st *catalogState, counts []int) {
	var spam []int
	for i, c := range counts {
		if c > 90 {
			spam = append(spam, i)
		}
	}
	m := len(spam)
	if m < 3 {
		return
	}
	// Popularity-sorted spam titles and their sorted counts.
	sortByDesc(spam, st.popularity)
	vals := make([]int, m)
	for k, gi := range spam {
		vals[k] = counts[gi]
	}
	slices.Sort(vals)
	// Pick the flattest of a fixed number of candidate permutations; with
	// |rho| falling as ~1/sqrt(tries), 64 candidates push the dealt
	// correlation well below the residual playtime noise.
	best := rng.Perm(m)
	bestRho := math.Abs(permRho(best))
	for t := 0; t < 63 && bestRho > 0.02; t++ {
		p := rng.Perm(m)
		if r := math.Abs(permRho(p)); r < bestRho {
			best, bestRho = p, r
		}
	}
	for k, gi := range spam {
		counts[gi] = vals[best[k]]
	}
}

// permRho is the Spearman correlation of the pairing (k, p[k]).
func permRho(p []int) float64 {
	n := float64(len(p))
	var d2 float64
	for k, v := range p {
		d := float64(k - v)
		d2 += d * d
	}
	return 1 - 6*d2/(n*(n*n-1))
}

// achScratch is per-chunk reusable state for makeAchievementList: the
// raw-percentage scratch and the name arena survive across the chunk's
// games, so a game's list costs two allocations (the list itself and one
// backing string shared by all its names) instead of two per achievement.
type achScratch struct {
	raw   []float64
	arena stringArena
	names []string
}

// makeAchievementList builds count achievements whose global completion
// percentages decay from easy story beats to rare completionist goals,
// scaled so the game's average matches its genre target (§9).
func makeAchievementList(cfg Config, rng *randx.RNG, g *Game, count int, sc *achScratch) []Achievement {
	target := completionTarget(cfg, rng, g)
	achs := make([]Achievement, count)
	// Raw decaying curve: the k-th achievement is completed by a fraction
	// that decays geometrically with noise.
	if cap(sc.raw) < count {
		sc.raw = make([]float64, count)
	}
	raw := sc.raw[:count]
	sum := 0.0
	for k := range raw {
		base := math.Exp(-2.8 * float64(k) / float64(count))
		raw[k] = base * math.Exp(0.35*rng.NormFloat64())
		sum += raw[k]
	}
	scale := target * float64(count) / sum
	sc.arena.reset()
	for k := range achs {
		pct := raw[k] * scale
		if pct > 97 {
			pct = 97
		}
		if pct < 0.1 {
			pct = 0.1
		}
		sc.arena.mark()
		sc.arena.buf = append(sc.arena.buf, "ACH_"...)
		sc.arena.buf = strconv.AppendUint(sc.arena.buf, uint64(g.AppID), 10)
		sc.arena.buf = append(sc.arena.buf, '_')
		sc.arena.buf = appendPadInt(sc.arena.buf, int64(k), 3)
		achs[k].GlobalPercent = math.Round(pct*10) / 10
	}
	sc.names = sc.arena.strings(sc.names[:0])
	for k := range achs {
		achs[k].Name = sc.names[k]
	}
	return achs
}

// completionTarget draws the game's average completion percentage: genre
// base (Adventure 19 %, Strategy 11 %, ...) with multiplicative noise whose
// mode sits near 5 % while the mean stays at the genre level — the §9
// mode/median/mean ordering caused by achievement hunters.
func completionTarget(cfg Config, rng *randx.RNG, g *Game) float64 {
	base, n := 0.0, 0
	for _, spec := range cfg.Genres {
		if g.Genres.Has(spec.Genre) {
			base += spec.AvgCompletion
			n++
		}
	}
	if n == 0 {
		base = 13
	} else {
		base /= float64(n)
	}
	// Lognormal with sigma chosen so mode ≈ 5 % when the mean is ~13 %:
	// mode = mean·e^{-3σ²/2}; σ=0.8 gives mode/mean ≈ 0.38.
	sigma := 0.8 * (1 + cfg.CompletionSigma*(rng.Float64()-0.5))
	mu := math.Log(base) - sigma*sigma/2
	v := math.Exp(mu + sigma*rng.NormFloat64())
	if v > 60 {
		v = 60
	}
	if v < 0.5 {
		v = 0.5
	}
	return v
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
