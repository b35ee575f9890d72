package dataset

import (
	"path/filepath"
	"strings"
	"testing"

	"steamstudy/internal/obs"
)

// fsckFixture is a minimal snapshot that passes every referential check;
// the violation tests each break exactly one thing in a copy of it.
func fsckFixture() *Snapshot {
	return &Snapshot{
		CollectedAt: 100,
		Users: []UserRecord{
			{SteamID: 1,
				Friends: []FriendRecord{{SteamID: 2, Since: 10}},
				Games:   []OwnershipRecord{{AppID: 10, TotalMinutes: 120, TwoWeekMinutes: 60}},
				Groups:  []uint64{7}},
			{SteamID: 2,
				Friends: []FriendRecord{{SteamID: 1, Since: 10}}},
		},
		Games:  []GameRecord{{AppID: 10, Name: "Alpha", Type: "game"}},
		Groups: []GroupRecord{{GID: 7, Name: "grp", Members: []uint64{1}}},
	}
}

// The section checksums are part of the on-disk format: a manifest
// written today must verify in any future build and in any process,
// whatever it happened to encode beforehand. Pin the fixture's CRCs.
// (Regression: an earlier draft hashed gob output, whose bytes depend on
// the process-global gob type-ID counter — the same snapshot checksummed
// differently depending on what the process had encoded first.)
func TestSectionChecksumsAreStable(t *testing.T) {
	sums := fsckFixture().sectionSums()
	if got := sums[sectionUsers].CRC32C; got != 0xd6730c03 {
		t.Errorf("users CRC = %08x, want d6730c03", got)
	}
	if got := sums[sectionGames].CRC32C; got != 0x6a46096c {
		t.Errorf("games CRC = %08x, want 6a46096c", got)
	}
	if got := sums[sectionGroups].CRC32C; got != 0x641af34a {
		t.Errorf("groups CRC = %08x, want 641af34a", got)
	}
}

func TestFsckCleanFixture(t *testing.T) {
	rep := fsckFixture().Fsck()
	if !rep.Clean() {
		t.Fatalf("fixture should be clean:\n%s", rep)
	}
	if rep.RecordsVerified != 4 { // 2 users + 1 game + 1 group
		t.Fatalf("RecordsVerified = %d, want 4", rep.RecordsVerified)
	}
}

func TestFsckReferentialViolations(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Snapshot)
		class  ViolationClass
	}{
		{"friend references unknown account", func(s *Snapshot) {
			s.Users[0].Friends = append(s.Users[0].Friends, FriendRecord{SteamID: 999})
		}, ViolationFriendUnknown},
		{"friendship not reciprocated", func(s *Snapshot) {
			s.Users[1].Friends = nil
		}, ViolationFriendAsymmetric},
		{"user lists itself as a friend", func(s *Snapshot) {
			s.Users[0].Friends = append(s.Users[0].Friends, FriendRecord{SteamID: 1})
		}, ViolationSelfFriend},
		{"owned app missing from catalog", func(s *Snapshot) {
			s.Users[0].Games = append(s.Users[0].Games, OwnershipRecord{AppID: 404, TotalMinutes: 1})
		}, ViolationOwnedAppUnknown},
		{"app owned twice", func(s *Snapshot) {
			s.Users[0].Games = append(s.Users[0].Games, s.Users[0].Games[0])
		}, ViolationDuplicateOwnership},
		{"two-week playtime exceeds lifetime", func(s *Snapshot) {
			s.Users[0].Games[0].TwoWeekMinutes = 500
		}, ViolationPlaytimeInvariant},
		{"negative playtime", func(s *Snapshot) {
			s.Users[0].Games[0].TotalMinutes = -1
		}, ViolationPlaytimeInvariant},
		{"membership in uncrawled group", func(s *Snapshot) {
			s.Users[0].Groups = append(s.Users[0].Groups, 404)
		}, ViolationMembershipUnknown},
		{"user lists group, group omits user", func(s *Snapshot) {
			s.Groups[0].Members = nil
		}, ViolationMembershipAsymmetric},
		{"group lists user, user omits group", func(s *Snapshot) {
			s.Users[0].Groups = nil
		}, ViolationMembershipAsymmetric},
		{"group lists unknown account", func(s *Snapshot) {
			s.Groups[0].Members = append(s.Groups[0].Members, 999)
		}, ViolationMemberUnknown},
		{"duplicate user record", func(s *Snapshot) {
			s.Users = append(s.Users, UserRecord{SteamID: 1})
		}, ViolationDuplicateUser},
		{"duplicate game record", func(s *Snapshot) {
			s.Games = append(s.Games, s.Games[0])
		}, ViolationDuplicateGame},
		{"duplicate group record", func(s *Snapshot) {
			s.Groups = append(s.Groups, GroupRecord{GID: 7})
		}, ViolationDuplicateGroup},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := fsckFixture()
			tc.mutate(s)
			rep := s.Fsck()
			if rep.Counts[tc.class] == 0 {
				t.Fatalf("expected %s violation, report:\n%s", tc.class, rep)
			}
		})
	}
}

// A thoroughly damaged snapshot keeps counting instead of stopping at the
// first violation, and caps retained samples.
func TestFsckAccumulatesAndCapsSamples(t *testing.T) {
	s := fsckFixture()
	for id := uint64(100); id < 110; id++ {
		s.Users[0].Friends = append(s.Users[0].Friends, FriendRecord{SteamID: id})
	}
	s.Users[0].Games[0].TwoWeekMinutes = 500
	rep := s.Fsck()
	if rep.Counts[ViolationFriendUnknown] != 10 {
		t.Fatalf("counted %d unknown friends, want 10", rep.Counts[ViolationFriendUnknown])
	}
	if rep.Counts[ViolationPlaytimeInvariant] != 1 {
		t.Fatalf("playtime violation lost: %v", rep.Counts)
	}
	if n := len(rep.Samples[ViolationFriendUnknown]); n != maxSamplesPerClass {
		t.Fatalf("retained %d samples, want %d", n, maxSamplesPerClass)
	}
	if rep.Violations() != 11 {
		t.Fatalf("Violations() = %d, want 11", rep.Violations())
	}
}

// The generator's output must satisfy the full referential schema — the
// same bar the crawler's snapshots are held to.
func TestFsckGeneratedUniverseClean(t *testing.T) {
	rep := testSnapshot(t).Fsck()
	if !rep.Clean() {
		t.Fatalf("generated universe fails fsck:\n%s", rep)
	}
}

// End-to-end file check on a clean snapshot, with metrics wiring.
func TestFsckFileCleanAndMetrics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.jsonl.gz")
	if err := fsckFixture().Save(path); err != nil {
		t.Fatal(err)
	}
	im := &IntegrityMetrics{}
	im.Register(obs.NewRegistry())
	rep, err := FsckFile(path, im)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || !rep.ManifestVerified {
		t.Fatalf("clean file reported dirty:\n%s", rep)
	}
	if im.RecordsVerified.Load() != rep.RecordsVerified {
		t.Fatalf("metrics records=%d, report=%d", im.RecordsVerified.Load(), rep.RecordsVerified)
	}
	if im.ChecksumFailures.Load() != 0 || im.Violations.Load() != 0 {
		t.Fatal("clean fsck incremented failure counters")
	}
	if !strings.Contains(rep.String(), "clean") {
		t.Fatalf("report rendering: %s", rep)
	}
}

// The committed example snapshot (testdata) must stay fsck-clean; it is
// the fixture `make fsck` and the README demonstrate against.
func TestFsckCommittedExample(t *testing.T) {
	rep, err := FsckFile(filepath.Join("testdata", "example.snap.jsonl"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("committed example snapshot is dirty:\n%s", rep)
	}
	if !rep.ManifestVerified {
		t.Fatal("committed example snapshot has no verified manifest")
	}
}
