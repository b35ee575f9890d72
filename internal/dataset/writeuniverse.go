// The universe producer. universeSource walks a universe's slab-backed
// columns — the CSR adjacency from FriendCSR, the library and membership
// slabs — one record at a time, building each record's lists in scratch
// the cursor reuses, so walking adds O(1) record memory on top of the
// universe itself. WriteUniverse drains it into a Writer, streaming
// generate→encode at paper scale; FromUniverse collects it, cloning the
// scratch lists into the records it keeps.

package dataset

import (
	"steamstudy/internal/simworld"
)

// WriteUniverse streams the ground-truth snapshot of u to path,
// byte-identical (file bytes and manifest) to Save of FromUniverse(u) —
// the crawler-equivalence tests pin that identity — for both the single
// file and the sharded directory layouts.
func WriteUniverse(path string, u *simworld.Universe, opts ...Option) error {
	return writeSource(path, u.CollectedAt, universeSource(u), opts)
}

// universeIter is the universe producer's cursor over one section. Its
// records' lists are scratch: valid until the next Next.
type universeIter struct {
	u       *simworld.Universe
	kind    RecordKind
	i       int
	offsets []int64 // FriendCSR, for the users section
	edges   []int32
	achs    []AchievementRecord
	friends []FriendRecord
	games   []OwnershipRecord
	ids     []uint64 // a user's groups or a group's members
}

func universeSource(u *simworld.Universe) sectionSource {
	return func(section string) (recordIter, error) {
		kind, err := sectionKind(section)
		if err != nil {
			return nil, err
		}
		it := &universeIter{u: u, kind: kind}
		if kind == KindUser {
			it.offsets, it.edges = u.FriendCSR()
		}
		return it, nil
	}
}

func (it *universeIter) Next(rec *Record) (bool, error) {
	u, i := it.u, it.i
	switch it.kind {
	case KindGame:
		if i == len(u.Games) {
			return false, nil
		}
		g := &u.Games[i]
		it.achs = it.achs[:0]
		for _, a := range g.Achievements {
			it.achs = append(it.achs, AchievementRecord{Name: a.Name, Percent: a.GlobalPercent})
		}
		rec.Game = GameRecord{
			AppID:        g.AppID,
			Name:         g.Name,
			Type:         g.Type.String(),
			Genres:       g.Genres.Names(),
			Multiplayer:  g.Multiplayer,
			PriceCents:   g.PriceCents,
			Metacritic:   g.Metacritic,
			ReleaseYear:  g.ReleaseYear,
			Developer:    g.Developer,
			Achievements: nilIfEmpty(it.achs),
		}
	case KindUser:
		if i == len(u.Users) {
			return false, nil
		}
		user := &u.Users[i]
		it.friends = it.friends[:0]
		for _, e := range it.edges[it.offsets[i]:it.offsets[i+1]] {
			f := &u.Friendships[e]
			peer := f.A
			if peer == int32(i) {
				peer = f.B
			}
			it.friends = append(it.friends, FriendRecord{SteamID: uint64(u.Users[peer].ID), Since: f.Since})
		}
		it.games = it.games[:0]
		for _, g := range user.Library {
			it.games = append(it.games, OwnershipRecord{
				AppID:          u.Games[g.GameIdx].AppID,
				TotalMinutes:   g.TotalMinutes,
				TwoWeekMinutes: g.TwoWeekMinutes,
			})
		}
		it.ids = it.ids[:0]
		for _, g := range user.Groups {
			it.ids = append(it.ids, u.Groups[g].ID)
		}
		rec.User = UserRecord{
			SteamID: uint64(user.ID),
			Created: user.Created,
			Country: user.Country,
			City:    user.City,
			Friends: nilIfEmpty(it.friends),
			Games:   nilIfEmpty(it.games),
			Groups:  nilIfEmpty(it.ids),
		}
	default:
		if i == len(u.Groups) {
			return false, nil
		}
		g := &u.Groups[i]
		it.ids = it.ids[:0]
		for _, m := range g.Members {
			it.ids = append(it.ids, uint64(u.Users[m].ID))
		}
		rec.Group = GroupRecord{
			GID:     g.ID,
			Name:    g.Name,
			Type:    g.Type.String(),
			Members: nilIfEmpty(it.ids),
		}
	}
	rec.Kind = it.kind
	it.i++
	return true, nil
}

func (it *universeIter) CollectedAt() int64 { return it.u.CollectedAt }
func (it *universeIter) Close() error       { return nil }

// nilIfEmpty maps a zero-length scratch slice to nil, so an empty list
// encodes as null (the JSONL codec distinguishes null from []) and
// collects as nil.
func nilIfEmpty[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}
