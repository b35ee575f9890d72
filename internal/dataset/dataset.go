// Package dataset defines the snapshot format shared by the crawler (which
// assembles one from Steam Web API responses) and the analysis pipeline
// (which consumes one regardless of whether it was crawled or extracted
// straight from a synthetic universe). It also provides persistence
// (JSON-lines, as one file or a sharded directory, through one streaming
// Writer and Reader) and the §8 two-snapshot comparison helpers.
package dataset

import (
	"cmp"
	"fmt"
	"slices"
)

// FriendRecord is one friendship as seen from a user's friend list.
type FriendRecord struct {
	SteamID uint64
	Since   int64
}

// OwnershipRecord is one owned game with its playtimes in minutes.
type OwnershipRecord struct {
	AppID          uint32
	TotalMinutes   int64
	TwoWeekMinutes int32
}

// UserRecord is everything the crawl learns about one account.
type UserRecord struct {
	SteamID uint64
	Created int64
	Country string
	City    string
	Friends []FriendRecord
	Games   []OwnershipRecord
	Groups  []uint64
}

// TotalMinutes sums lifetime playtime over the library.
func (u *UserRecord) TotalMinutes() int64 {
	var s int64
	for _, g := range u.Games {
		s += g.TotalMinutes
	}
	return s
}

// TwoWeekMinutes sums two-week playtime over the library.
func (u *UserRecord) TwoWeekMinutes() int64 {
	var s int64
	for _, g := range u.Games {
		s += int64(g.TwoWeekMinutes)
	}
	return s
}

// AchievementRecord is one achievement with its global completion rate.
type AchievementRecord struct {
	Name    string
	Percent float64
}

// GameRecord is one storefront product.
type GameRecord struct {
	AppID        uint32
	Name         string
	Type         string
	Genres       []string
	Multiplayer  bool
	PriceCents   int64
	Metacritic   int
	ReleaseYear  int
	Developer    string
	Achievements []AchievementRecord
}

// HasGenre reports whether the game carries the named genre label.
func (g *GameRecord) HasGenre(name string) bool {
	for _, n := range g.Genres {
		if n == name {
			return true
		}
	}
	return false
}

// GroupRecord is one community group with its member accounts.
type GroupRecord struct {
	GID     uint64
	Name    string
	Type    string
	Members []uint64
}

// Snapshot is a complete crawl result.
type Snapshot struct {
	// CollectedAt is the nominal crawl end (Unix seconds).
	CollectedAt int64
	Users       []UserRecord
	Games       []GameRecord
	Groups      []GroupRecord
}

// Edge is one deduplicated, undirected friendship between user indices.
type Edge struct {
	A, B  int32
	Since int64
}

// UserIndex maps SteamIDs to indices into Users.
func (s *Snapshot) UserIndex() map[uint64]int32 {
	idx := make(map[uint64]int32, len(s.Users))
	for i := range s.Users {
		idx[s.Users[i].SteamID] = int32(i)
	}
	return idx
}

// GameIndex maps AppIDs to indices into Games.
func (s *Snapshot) GameIndex() map[uint32]int32 {
	idx := make(map[uint32]int32, len(s.Games))
	for i := range s.Games {
		idx[s.Games[i].AppID] = int32(i)
	}
	return idx
}

// FriendshipEdges deduplicates the per-user friend lists into undirected
// edges (each reciprocal pair appears once). Friends outside the snapshot
// are dropped, mirroring the paper's handling of dangling references.
func (s *Snapshot) FriendshipEdges() []Edge {
	idx := s.UserIndex()
	var edges []Edge
	for i := range s.Users {
		a := int32(i)
		for _, f := range s.Users[i].Friends {
			b, ok := idx[f.SteamID]
			if !ok || b == a {
				continue
			}
			if a < b { // count each undirected edge once
				edges = append(edges, Edge{A: a, B: b, Since: f.Since})
			}
		}
	}
	// A typed sort runs sort.Slice's pdqsort with the same comparisons, so
	// edges tied on Since keep the order they always had.
	slices.SortFunc(edges, func(x, y Edge) int { return cmp.Compare(x.Since, y.Since) })
	return edges
}

// Totals summarizes the snapshot's headline aggregates (§1's bullets).
type Totals struct {
	Users       int
	Games       int
	Groups      int
	Friendships int
	Memberships int
	OwnedGames  int64
	PlaytimeYrs float64
	ValueUSD    float64
}

// Totals computes the aggregates; market value uses current storefront
// prices, the paper's §6 approximation.
func (s *Snapshot) Totals() Totals {
	t := Totals{Users: len(s.Users), Games: len(s.Games), Groups: len(s.Groups)}
	price := make(map[uint32]int64, len(s.Games))
	for i := range s.Games {
		price[s.Games[i].AppID] = s.Games[i].PriceCents
	}
	for i := range s.Users {
		u := &s.Users[i]
		t.OwnedGames += int64(len(u.Games))
		t.Memberships += len(u.Groups)
		for _, g := range u.Games {
			t.PlaytimeYrs += float64(g.TotalMinutes) / (60 * 24 * 365.25)
			t.ValueUSD += float64(price[g.AppID]) / 100
		}
	}
	t.Friendships = len(s.FriendshipEdges())
	return t
}

// Validate checks structural invariants of the snapshot and returns the
// first violation found.
func (s *Snapshot) Validate() error {
	seen := make(map[uint64]bool, len(s.Users))
	for i := range s.Users {
		u := &s.Users[i]
		if seen[u.SteamID] {
			return fmt.Errorf("dataset: duplicate user %d", u.SteamID)
		}
		seen[u.SteamID] = true
		if err := checkUser(u); err != nil {
			return err
		}
	}
	apps := make(map[uint32]bool, len(s.Games))
	for i := range s.Games {
		if apps[s.Games[i].AppID] {
			return fmt.Errorf("dataset: duplicate app %d", s.Games[i].AppID)
		}
		apps[s.Games[i].AppID] = true
	}
	return nil
}

// checkUser checks one user's library: no app owned twice, and playtimes
// non-negative with two-week within lifetime. The merge, whose parts are
// never validated, checks every user it emits with it.
func checkUser(u *UserRecord) error {
	seen := make(map[uint32]bool, len(u.Games))
	for _, g := range u.Games {
		if seen[g.AppID] {
			return fmt.Errorf("dataset: user %d owns app %d twice", u.SteamID, g.AppID)
		}
		seen[g.AppID] = true
		if int64(g.TwoWeekMinutes) > g.TotalMinutes {
			return fmt.Errorf("dataset: user %d app %d two-week exceeds lifetime", u.SteamID, g.AppID)
		}
		if g.TotalMinutes < 0 || g.TwoWeekMinutes < 0 {
			return fmt.Errorf("dataset: user %d app %d negative playtime", u.SteamID, g.AppID)
		}
	}
	return nil
}
