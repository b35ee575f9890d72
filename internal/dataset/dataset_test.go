package dataset

import (
	"path/filepath"
	"reflect"
	"testing"

	"steamstudy/internal/simworld"
)

func testSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	cfg := simworld.DefaultConfig(1500)
	cfg.CatalogSize = 200
	u := simworld.MustGenerate(cfg, 3)
	return FromUniverse(u)
}

func TestFromUniverseValid(t *testing.T) {
	s := testSnapshot(t)
	if rep := s.Fsck(); !rep.Clean() {
		t.Fatal(rep)
	}
	if len(s.Users) != 1500 || len(s.Games) != 200 {
		t.Fatalf("sizes: %d users, %d games", len(s.Users), len(s.Games))
	}
}

func TestFromUniverseMatchesUniverseAggregates(t *testing.T) {
	cfg := simworld.DefaultConfig(1500)
	cfg.CatalogSize = 200
	u := simworld.MustGenerate(cfg, 3)
	s := FromUniverse(u)
	us := u.Stats()
	tot := s.Totals()
	if tot.Friendships != us.Friendships {
		t.Fatalf("friendships %d vs %d", tot.Friendships, us.Friendships)
	}
	if tot.OwnedGames != us.OwnedGames {
		t.Fatalf("owned games %d vs %d", tot.OwnedGames, us.OwnedGames)
	}
	if tot.Memberships != us.Memberships {
		t.Fatalf("memberships %d vs %d", tot.Memberships, us.Memberships)
	}
}

func TestFriendshipEdgesReciprocalOnce(t *testing.T) {
	s := testSnapshot(t)
	edges := s.FriendshipEdges()
	seen := map[[2]int32]bool{}
	for _, e := range edges {
		if e.A == e.B {
			t.Fatal("self edge")
		}
		key := [2]int32{e.A, e.B}
		if e.A > e.B {
			key = [2]int32{e.B, e.A}
		}
		if seen[key] {
			t.Fatal("edge counted twice")
		}
		seen[key] = true
	}
	// Every user's friend list length sums to exactly 2x the edge count
	// (full reciprocity inside the snapshot).
	sum := 0
	for i := range s.Users {
		sum += len(s.Users[i].Friends)
	}
	if sum != 2*len(edges) {
		t.Fatalf("friend list total %d, want %d", sum, 2*len(edges))
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := testSnapshot(t)
	dir := t.TempDir()
	for _, name := range []string{"snap.jsonl", "snap.jsonl.gz", "snap.d"} {
		path := filepath.Join(dir, name)
		if err := s.Save(path); err != nil {
			t.Fatalf("save %s: %v", name, err)
		}
		got, err := Load(path)
		if err != nil {
			t.Fatalf("load %s: %v", name, err)
		}
		if got.CollectedAt != s.CollectedAt {
			t.Fatalf("%s: CollectedAt mismatch", name)
		}
		if !reflect.DeepEqual(got.Users, s.Users) {
			t.Fatalf("%s: users differ after round trip", name)
		}
		if !reflect.DeepEqual(got.Games, s.Games) {
			t.Fatalf("%s: games differ after round trip", name)
		}
		if !reflect.DeepEqual(got.Groups, s.Groups) {
			t.Fatalf("%s: groups differ after round trip", name)
		}
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.jsonl")); err == nil {
		t.Fatal("missing file load succeeded")
	}
}

func TestUserRecordSums(t *testing.T) {
	u := UserRecord{Games: []OwnershipRecord{
		{AppID: 1, TotalMinutes: 100, TwoWeekMinutes: 10},
		{AppID: 2, TotalMinutes: 50, TwoWeekMinutes: 5},
	}}
	if u.TotalMinutes() != 150 || u.TwoWeekMinutes() != 15 {
		t.Fatalf("sums: %d, %d", u.TotalMinutes(), u.TwoWeekMinutes())
	}
}

func TestHasGenre(t *testing.T) {
	g := GameRecord{Genres: []string{"Action", "RPG"}}
	if !g.HasGenre("Action") || g.HasGenre("Casual") {
		t.Fatal("HasGenre broken")
	}
}

func TestGameIndexAndUserIndex(t *testing.T) {
	s := testSnapshot(t)
	gi := s.GameIndex()
	for i := range s.Games {
		if gi[s.Games[i].AppID] != int32(i) {
			t.Fatal("game index wrong")
		}
	}
	ui := s.UserIndex()
	for i := range s.Users {
		if ui[s.Users[i].SteamID] != int32(i) {
			t.Fatal("user index wrong")
		}
	}
}

func TestMergeDisjointParts(t *testing.T) {
	s := testSnapshot(t)
	mid := len(s.Users) / 2
	a := &Snapshot{CollectedAt: 100, Users: s.Users[:mid], Games: s.Games, Groups: s.Groups}
	b := &Snapshot{CollectedAt: 200, Users: s.Users[mid:], Games: s.Games, Groups: s.Groups}
	merged, err := MergeAt(200, []*Snapshot{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Users) != len(s.Users) {
		t.Fatalf("merged %d users, want %d", len(merged.Users), len(s.Users))
	}
	if merged.CollectedAt != 200 {
		t.Fatalf("merged CollectedAt %d", merged.CollectedAt)
	}
	if len(merged.Games) != len(s.Games) {
		t.Fatal("catalog duplicated or lost")
	}
	for i := 1; i < len(merged.Users); i++ {
		if merged.Users[i].SteamID <= merged.Users[i-1].SteamID {
			t.Fatal("merged users not ID-sorted")
		}
	}
}

func TestMergeLaterPartSupersedes(t *testing.T) {
	s := testSnapshot(t)
	old := *s
	old.Users = append([]UserRecord{}, s.Users...)
	// A re-crawl where user 0 gained a game.
	newer := &Snapshot{CollectedAt: s.CollectedAt + 1}
	updated := s.Users[0]
	updated.Games = append(append([]OwnershipRecord{}, updated.Games...),
		OwnershipRecord{AppID: s.Games[len(s.Games)-1].AppID + 1000, TotalMinutes: 5})
	newer.Users = []UserRecord{updated}
	merged, err := MergeAt(newer.CollectedAt, []*Snapshot{&old, newer})
	if err != nil {
		t.Fatal(err)
	}
	got := merged.Users[0]
	if len(got.Games) != len(updated.Games) {
		t.Fatalf("later observation did not supersede: %d games, want %d",
			len(got.Games), len(updated.Games))
	}
}

func TestMergeGroupMemberUnion(t *testing.T) {
	a := &Snapshot{Groups: []GroupRecord{{GID: 7, Members: []uint64{1, 2}}}}
	b := &Snapshot{Groups: []GroupRecord{{GID: 7, Type: "Game Server", Members: []uint64{2, 3}}}}
	merged, err := MergeAt(0, []*Snapshot{a, b})
	if err != nil {
		t.Fatal(err)
	}
	g := merged.Groups[0]
	if len(g.Members) != 3 {
		t.Fatalf("member union = %v", g.Members)
	}
	if g.Type != "Game Server" {
		t.Fatalf("type not filled from the later part: %q", g.Type)
	}
}

// A member-less group held by two parts merges to a nil member list, so
// its line encodes "Members":null exactly as the one-part merge does.
func TestMergeMemberlessGroupStaysNull(t *testing.T) {
	part := &Snapshot{Groups: []GroupRecord{{GID: 7}}}
	one, err := MergeAt(0, []*Snapshot{part})
	if err != nil {
		t.Fatal(err)
	}
	two, err := MergeAt(0, []*Snapshot{part, part})
	if err != nil {
		t.Fatal(err)
	}
	if two.Groups[0].Members != nil {
		t.Fatalf("two-part merge members = %#v, want nil", two.Groups[0].Members)
	}
	want, _ := appendGroupLine(nil, &one.Groups[0])
	got, _ := appendGroupLine(nil, &two.Groups[0])
	if string(got) != string(want) {
		t.Fatalf("two-part merge line %s, one part %s", got, want)
	}
}

func TestMergeRejectsEmpty(t *testing.T) {
	if _, err := MergeAt(0, nil); err == nil {
		t.Fatal("empty merge accepted")
	}
	if m, err := MergeAt(0, []*Snapshot{nil, testSnapshot(t)}); err != nil || len(m.Users) == 0 {
		t.Fatalf("nil part not skipped: %v", err)
	}
}
