package dataset

import (
	"slices"

	"steamstudy/internal/simworld"
)

// FromUniverse extracts the ground-truth snapshot of a synthetic universe,
// bypassing the API/crawler path. Analyses accept either this or a crawled
// snapshot; the crawler integration tests assert the two are identical.
// It collects the universe source, cloning the cursor's scratch lists
// (an empty list stays nil).
func FromUniverse(u *simworld.Universe) *Snapshot {
	s := &Snapshot{
		CollectedAt: u.CollectedAt,
		Games:       make([]GameRecord, 0, len(u.Games)),
		Users:       make([]UserRecord, 0, len(u.Users)),
		Groups:      make([]GroupRecord, 0, len(u.Groups)),
	}
	_ = s.collect(universeSource(u), (*Record).cloneLists) // the universe source cannot fail
	return s
}

// cloneLists gives rec's lists their own backing arrays: every list the
// universe cursor reuses, which is all but a game's Genres.
func (rec *Record) cloneLists() {
	rec.Game.Achievements = slices.Clone(rec.Game.Achievements)
	rec.User.Friends = slices.Clone(rec.User.Friends)
	rec.User.Games = slices.Clone(rec.User.Games)
	rec.User.Groups = slices.Clone(rec.User.Groups)
	rec.Group.Members = slices.Clone(rec.Group.Members)
}

// GroupTypeNames lists the Table 2 type labels in display order, exposed
// for report rendering without importing simworld.
var GroupTypeNames = []string{
	simworld.GroupGameServer.String(),
	simworld.GroupSingleGame.String(),
	simworld.GroupGamingCommunity.String(),
	simworld.GroupSpecialInterest.String(),
	simworld.GroupSteam.String(),
	simworld.GroupPublisher.String(),
}

// GenreNames lists the genre labels in display order.
var GenreNames = func() []string {
	out := make([]string, len(simworld.GenreNames))
	copy(out, simworld.GenreNames[:])
	return out
}()
