package simworld

import (
	"cmp"
	"math"
	"slices"

	"steamstudy/internal/randx"
)

// WeekSeries returns the minutes a user played on each of seven
// consecutive days — the Fig 12 measurement. Series are derived
// deterministically from the universe seed and the user index, so the
// week sample can be regenerated without storing 7 columns for every
// user.
//
// The model reproduces the paper's two Fig 12 findings: day-to-day
// playtime within a user varies strongly (users dark on day one are often
// light later and vice versa), while the overall left-to-right gradient
// persists (heavy players remain heavier in expectation). Days are an
// AR(1) process in log intensity around the user's base rate, with
// zero-day dropouts for casual players.
func (u *Universe) WeekSeries(userIdx int) [7]int32 {
	var out [7]int32
	user := &u.Users[userIdx]
	base := float64(user.TwoWeekMinutes) / 14
	if base <= 0 {
		// Users idle in the crawl window can still show sporadic play;
		// most stay at zero all week.
		base = 0
	}
	rng := randx.New(u.Seed).Split("week").Split(user.ID.String())
	if base == 0 {
		if !rng.Bool(0.06) {
			return out
		}
		// A dormant account waking up for a session or two.
		day := rng.Intn(7)
		out[day] = int32(20 + rng.Intn(200))
		if rng.Bool(0.3) {
			out[(day+1+rng.Intn(6))%7] = int32(15 + rng.Intn(120))
		}
		return out
	}
	// Zero-day probability shrinks with engagement.
	pZero := math.Exp(-base / 45)
	ar := 0.0
	const rho, sigma = 0.55, 0.9
	for d := 0; d < 7; d++ {
		ar = rho*ar + math.Sqrt(1-rho*rho)*rng.NormFloat64()
		if rng.Bool(pZero) {
			continue
		}
		// Divide by the non-zero-day probability so the expected weekly
		// total matches the user's base rate.
		minutes := base / (1 - pZero) * math.Exp(sigma*ar-sigma*sigma/2)
		if minutes > 24*60 {
			minutes = 24 * 60
		}
		if minutes < 1 {
			minutes = 1
		}
		out[d] = int32(minutes)
	}
	// Idlers saturate the week.
	if user.Persona.Has(PersonaIdler) {
		for d := 0; d < 7; d++ {
			out[d] = int32(24*60) - int32(rng.Intn(180))
		}
	}
	return out
}

// SampleWeekUsers returns the user indices of the Fig 12 sample: users
// ordered by lifetime playtime, thinned to a uniform frac (the paper used
// 0.5 %), preserving the lifetime-playtime ordering.
func (u *Universe) SampleWeekUsers(frac float64) []int {
	if frac <= 0 || frac > 1 {
		frac = 0.005
	}
	step := int(1 / frac)
	if step < 1 {
		step = 1
	}
	order := make([]int, len(u.Users))
	for i := range order {
		order[i] = i
	}
	// Order by lifetime minutes (the paper sampled uniformly across the
	// total-minutes ordering).
	sortByTotalMinutes(u, order)
	var out []int
	for i := 0; i < len(order); i += step {
		out = append(out, order[i])
	}
	return out
}

func sortByTotalMinutes(u *Universe, order []int) {
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Compare(u.Users[a].TotalMinutes, u.Users[b].TotalMinutes)
	})
}
