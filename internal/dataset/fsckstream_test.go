package dataset

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// saveBoth writes the same snapshot as a single file and a shard
// directory (small shards so every section spans several segments) and
// returns both paths.
func saveBoth(t *testing.T, s *Snapshot) (single, sharded string) {
	t.Helper()
	dir := t.TempDir()
	single = filepath.Join(dir, "snap.jsonl")
	sharded = filepath.Join(dir, "snap.d")
	if err := s.Save(single); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(sharded, WithShardRecords(64)); err != nil {
		t.Fatal(err)
	}
	return single, sharded
}

// compareReports asserts got carries want's section shape, verification
// count, and every violation class with its sample prefix.
func compareReports(t *testing.T, label string, want, got *Report) {
	t.Helper()
	if want.Users != got.Users || want.Games != got.Games || want.Groups != got.Groups {
		t.Fatalf("%s: shape %d/%d/%d, want %d/%d/%d", label,
			got.Users, got.Games, got.Groups, want.Users, want.Games, want.Groups)
	}
	if want.RecordsVerified != got.RecordsVerified {
		t.Fatalf("%s: RecordsVerified %d, want %d", label, got.RecordsVerified, want.RecordsVerified)
	}
	if !reflect.DeepEqual(want.Counts, got.Counts) {
		t.Fatalf("%s: Counts diverge:\ngot  %v\nwant %v", label, got.Counts, want.Counts)
	}
	if !reflect.DeepEqual(want.Samples, got.Samples) {
		t.Fatalf("%s: Samples diverge:\ngot  %v\nwant %v", label, got.Samples, want.Samples)
	}
}

// checkAgainstOracle runs fsck on s from every source — Snapshot.Fsck
// over the slices, FsckFile on a single file and on a shard directory —
// and asserts each report equals the map-based oracle's. It returns the
// oracle's report.
func checkAgainstOracle(t *testing.T, s *Snapshot) *Report {
	t.Helper()
	want := oracleFsck(s)
	compareReports(t, "in-memory", want, s.Fsck())
	single, sharded := saveBoth(t, s)
	for _, path := range []string{single, sharded} {
		got, err := FsckFile(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !got.ManifestVerified {
			t.Fatalf("%s: manifest not verified", path)
		}
		compareReports(t, filepath.Base(path), want, got)
	}
	return want
}

// firstOwner returns the index of the first user owning at least one
// game (not every generated account has a library).
func firstOwner(s *Snapshot) int {
	for i := range s.Users {
		if len(s.Users[i].Games) > 0 {
			return i
		}
	}
	panic("no user owns a game")
}

// Every fsck source must produce the oracle's report on a clean generated
// universe — large enough that sections span many
// segments and the ID census, edge index and membership index all get
// real traffic.
func TestFsckShardedMatchesInMemoryClean(t *testing.T) {
	if rep := checkAgainstOracle(t, testSnapshot(t)); !rep.Clean() {
		t.Fatalf("expected a clean report:\n%s", rep)
	}
}

// Every referential violation class must be detected from every source
// with the same counts and sample strings as the oracle.
// The mutations are stacked into one thoroughly dirty snapshot so the
// cross-pass bookkeeping (duplicate IDs colliding with asymmetry checks,
// unknown references interleaved with valid ones) is exercised together,
// then each class is also checked in isolation.
func TestFsckShardedMatchesInMemoryDirty(t *testing.T) {
	mutations := []struct {
		name   string
		mutate func(*Snapshot)
		// class, when set, must be reported more than maxSamplesPerClass
		// times, so the sample prefix is cut from many records.
		class ViolationClass
	}{
		{"friend-unknown", func(s *Snapshot) {
			s.Users[0].Friends = append(s.Users[0].Friends, FriendRecord{SteamID: 999})
		}, ""},
		{"friend-asymmetric", func(s *Snapshot) {
			s.Users[1].Friends = nil
		}, ""},
		{"self-friend", func(s *Snapshot) {
			s.Users[0].Friends = append(s.Users[0].Friends, FriendRecord{SteamID: s.Users[0].SteamID})
		}, ""},
		{"owned-app-unknown", func(s *Snapshot) {
			s.Users[0].Games = append(s.Users[0].Games, OwnershipRecord{AppID: 4040404, TotalMinutes: 1})
		}, ""},
		{"duplicate-ownership", func(s *Snapshot) {
			u := &s.Users[firstOwner(s)]
			u.Games = append(u.Games, u.Games[0])
		}, ""},
		{"playtime-invariant", func(s *Snapshot) {
			s.Users[firstOwner(s)].Games[0].TwoWeekMinutes = 1 << 30
		}, ""},
		{"membership-group-unknown", func(s *Snapshot) {
			s.Users[0].Groups = append(s.Users[0].Groups, 40404)
		}, ""},
		{"membership-asymmetric-user-side", func(s *Snapshot) {
			s.Groups[0].Members = nil
		}, ""},
		{"membership-asymmetric-group-side", func(s *Snapshot) {
			s.Groups[0].Members = append(s.Groups[0].Members, s.Users[2].SteamID)
		}, ""},
		{"member-unknown", func(s *Snapshot) {
			s.Groups[0].Members = append(s.Groups[0].Members, 999)
		}, ""},
		{"duplicate-user", func(s *Snapshot) {
			s.Users = append(s.Users, UserRecord{SteamID: s.Users[0].SteamID,
				Friends: []FriendRecord{{SteamID: s.Users[1].SteamID}}})
		}, ""},
		{"duplicate-game", func(s *Snapshot) {
			s.Games = append(s.Games, s.Games[0])
		}, ""},
		{"duplicate-group", func(s *Snapshot) {
			s.Groups = append(s.Groups, GroupRecord{GID: s.Groups[0].GID, Members: s.Groups[0].Members})
		}, ""},
		{"friend-asymmetric-many", func(s *Snapshot) {
			for i := 1; i <= 20; i++ {
				s.Users[i].Friends = nil
			}
		}, ViolationFriendAsymmetric},
		{"duplicate-user-with-links", func(s *Snapshot) {
			// The second record of a groupless user joins group 0, which
			// lists the user back. Only the first record counts for the
			// group-side check, so the group still sees an asymmetry. The
			// copy sits right after the original, so the users section
			// stays in SteamID order.
			x := groupless(s)
			s.Groups[0].Members = append(s.Groups[0].Members, s.Users[x].SteamID)
			s.Users = slices.Insert(s.Users, x+1, UserRecord{SteamID: s.Users[x].SteamID,
				Friends: []FriendRecord{{SteamID: s.Users[2].SteamID}, {SteamID: s.Users[3].SteamID}, {SteamID: 999}},
				Groups:  []uint64{s.Groups[0].GID, s.Groups[1].GID}})
		}, ""},
		{"duplicate-ownership-after-large-library", func(s *Snapshot) {
			// User 10 owns the whole catalog; user 11 then owns two of
			// those apps, one of them twice: exactly one duplicate.
			s.Users[10].Games = nil
			for _, g := range s.Games {
				s.Users[10].Games = append(s.Users[10].Games, OwnershipRecord{AppID: g.AppID, TotalMinutes: 1})
			}
			a, b := s.Games[0].AppID, s.Games[1].AppID
			s.Users[11].Games = []OwnershipRecord{{AppID: a}, {AppID: b}, {AppID: b}}
		}, ""},
		{"friend-unknown-spanning-segments", func(s *Snapshot) {
			// Ten unknown friends straddling the users-0001/users-0002
			// segment boundary: the retained samples are the first three
			// in record order, whichever segment they came from.
			for i := 2*64 - 5; i < 2*64+5; i++ {
				s.Users[i].Friends = append(s.Users[i].Friends, FriendRecord{SteamID: uint64(1_000_000 + i)})
			}
		}, ViolationFriendUnknown},
	}

	for _, tc := range mutations {
		t.Run(tc.name, func(t *testing.T) {
			s := testSnapshot(t)
			tc.mutate(s)
			rep := checkAgainstOracle(t, s)
			if rep.Clean() {
				t.Fatalf("mutation %s produced a clean report", tc.name)
			}
			if tc.class != "" && rep.Counts[tc.class] <= maxSamplesPerClass {
				t.Fatalf("%s reported %d times, want more than %d", tc.class, rep.Counts[tc.class], maxSamplesPerClass)
			}
		})
	}

	t.Run("all-stacked", func(t *testing.T) {
		s := testSnapshot(t)
		for _, tc := range mutations {
			tc.mutate(s)
		}
		checkAgainstOracle(t, s)
	})
}

// fixtureBlock is the stride at which everyClassFixture scatters its
// violations, so they land in different segments and decode chunks.
const fixtureBlock = 2048

// everyClassFixture builds a snapshot several fixtureBlocks of users
// long, seeded with at least one violation of every referential class,
// spread across blocks.
func everyClassFixture() *Snapshot {
	const n = 3*fixtureBlock + 500
	s := &Snapshot{CollectedAt: 77}
	s.Games = []GameRecord{{AppID: 10, Name: "Alpha", Type: "game"}}
	for i := 0; i < n; i++ {
		id := uint64(i + 1)
		u := UserRecord{SteamID: id, Country: "DE",
			Games:  []OwnershipRecord{{AppID: 10, TotalMinutes: 100, TwoWeekMinutes: 10}},
			Groups: []uint64{7}}
		prev, next := id-1, id+1
		if i > 0 {
			u.Friends = append(u.Friends, FriendRecord{SteamID: prev, Since: 5})
		}
		if i < n-1 {
			u.Friends = append(u.Friends, FriendRecord{SteamID: next, Since: 5})
		}
		s.Users = append(s.Users, u)
	}
	members := make([]uint64, n)
	for i := range members {
		members[i] = uint64(i + 1)
	}
	s.Groups = []GroupRecord{{GID: 7, Name: "grp", Type: "Open", Members: members}}

	// One violation of each referential class, scattered across blocks.
	at := func(block, off int) *UserRecord { return &s.Users[block*fixtureBlock+off] }
	at(0, 10).Friends = append(at(0, 10).Friends, FriendRecord{SteamID: 999_999})           // friend-unknown
	at(1, 20).Friends = append(at(1, 20).Friends, FriendRecord{SteamID: at(1, 20).SteamID}) // self-friend
	at(2, 30).Friends = append(at(2, 30).Friends, FriendRecord{SteamID: 3})                 // asymmetric (3 doesn't list them)
	at(0, 40).Games = append(at(0, 40).Games, OwnershipRecord{AppID: 404})                  // owned-app-unknown
	at(1, 50).Games = append(at(1, 50).Games, s.Users[fixtureBlock+50].Games[0])            // duplicate-ownership
	at(2, 60).Games[0].TwoWeekMinutes = 500                                                 // playtime-invariant
	at(3, 70).Groups = append(at(3, 70).Groups, 404)                                        // membership-group-unknown
	at(3, 80).Groups = nil                                                                  // membership-asymmetric (group lists them)
	s.Groups[0].Members = append(s.Groups[0].Members, 888_888)                              // member-unknown
	s.Users = append(s.Users, UserRecord{SteamID: 1})                                       // duplicate-user
	s.Games = append(s.Games, s.Games[0])                                                   // duplicate-game
	s.Groups = append(s.Groups, GroupRecord{GID: 7})                                        // duplicate-group
	return s
}

// The sharded streaming fsck — and the single-file and in-memory scans —
// match the sequential map-based oracle on one snapshot that carries
// every referential class at once.
func TestFsckShardedMatchesSequential(t *testing.T) {
	s := everyClassFixture()
	rep := checkAgainstOracle(t, s)
	for _, class := range []ViolationClass{
		ViolationDuplicateUser, ViolationDuplicateGame, ViolationDuplicateGroup,
		ViolationDuplicateOwnership, ViolationPlaytimeInvariant, ViolationFriendUnknown,
		ViolationFriendAsymmetric, ViolationSelfFriend, ViolationOwnedAppUnknown,
		ViolationMembershipUnknown, ViolationMemberUnknown, ViolationMembershipAsymmetric,
	} {
		if rep.Counts[class] == 0 {
			t.Fatalf("fixture seeds no %s violation", class)
		}
	}
}

// groupless returns the index of the first user in no group.
func groupless(s *Snapshot) int {
	for i := range s.Users {
		if len(s.Users[i].Groups) == 0 {
			return i
		}
	}
	panic("every user is in a group")
}

// Segment corruption must be localized: the report names the damaged
// segment under file-hash-mismatch, keeps ManifestVerified, and the
// referential checks still run on the decodable remainder.
func TestFsckShardedDetectsSegmentCorruption(t *testing.T) {
	s := testSnapshot(t)
	_, sharded := saveBoth(t, s)
	seg := filepath.Join(sharded, "users-0001.jsonl")
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	i := strings.IndexByte(string(b), '5')
	if i < 0 {
		t.Fatal("no digit to flip")
	}
	b[i] = '6'
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := FsckFile(sharded, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ManifestVerified {
		t.Fatal("manifest checks should still run")
	}
	if rep.Counts[ViolationFileHash] == 0 {
		t.Fatalf("corruption not detected:\n%s", rep)
	}
	found := false
	for _, sample := range rep.Samples[ViolationFileHash] {
		if strings.Contains(sample, "users-0001.jsonl") {
			found = true
		}
	}
	if !found {
		t.Fatalf("damage not localized to segment: %v", rep.Samples[ViolationFileHash])
	}
}

// A truncated segment is reported as both a byte-count mismatch and,
// through the canonical section checksum, a section-level violation.
func TestFsckShardedDetectsTruncatedSegment(t *testing.T) {
	s := testSnapshot(t)
	_, sharded := saveBoth(t, s)
	seg := filepath.Join(sharded, "users-0002.jsonl")
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	cut := strings.Index(string(b), "\n")
	if err := os.WriteFile(seg, b[:cut+1], 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := FsckFile(sharded, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counts[ViolationFileHash] == 0 {
		t.Fatalf("truncation not detected in raw pass:\n%s", rep)
	}
	if rep.Counts[ViolationSectionCount] == 0 {
		t.Fatalf("truncation not detected in section counts:\n%s", rep)
	}
}

// A missing manifest downgrades structural coverage (no checksum pass)
// but the referential scan still runs in full, like the single-file path.
func TestFsckShardedNoManifest(t *testing.T) {
	s := testSnapshot(t)
	_, sharded := saveBoth(t, s)
	if err := os.Remove(ManifestPath(sharded)); err != nil {
		t.Fatal(err)
	}
	rep, err := FsckFile(sharded, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ManifestVerified {
		t.Fatal("ManifestVerified without a manifest")
	}
	if !rep.Clean() {
		t.Fatalf("clean data reported dirty without manifest:\n%s", rep)
	}
	if rep.RecordsVerified == 0 {
		t.Fatal("referential checks did not run")
	}
}

// Pointing fsck at a bare segment file is an environmental error (the
// caller named the wrong artifact), not a corruption report.
func TestFsckShardedRejectsBareSegment(t *testing.T) {
	s := testSnapshot(t)
	_, sharded := saveBoth(t, s)
	_, err := FsckFile(filepath.Join(sharded, "users-0000.jsonl"), nil)
	if err == nil {
		t.Fatal("expected error for bare segment path")
	}
}

// The census's bucketed lookup must agree with a first-wins map over the
// stream: duplicate IDs resolve to their first position, and IDs below
// the smallest, above the largest and in the gaps between are absent.
// Both the already-sorted stream (no position table) and an unsorted one
// run, over dense, sparse and SteamID-sized ID ranges.
func TestIDCensusFind(t *testing.T) {
	const base = 76561197960265728 // the SteamID64 of account 0
	for _, tc := range []struct {
		name string
		ids  []uint64
	}{
		{"empty", nil},
		{"single", []uint64{base + 5}},
		{"sorted-dense", []uint64{base, base + 1, base + 2, base + 2, base + 3, base + 9}},
		{"sorted-sparse", []uint64{base + 3, base + 1000, base + 1000, base + 1<<40, base + 1<<40 + 7}},
		{"unsorted-dups", []uint64{base + 90, base + 4, base + 90, base + 17, base + 4, base + 4, base + 1<<33, base + 17}},
		{"unsorted-wide", []uint64{^uint64(0), 0, 1 << 63, ^uint64(0), 0, 12345}},
	} {
		c := idCensus{ids: slices.Clone(tc.ids)}
		c.build()
		first := map[uint64]int32{}
		for i, id := range tc.ids {
			if _, ok := first[id]; !ok {
				first[id] = int32(i)
			}
		}
		probes := []uint64{0, 1, base - 1, base, ^uint64(0), ^uint64(0) - 1}
		for _, id := range tc.ids {
			probes = append(probes, id, id-1, id+1, id+1000)
		}
		for _, id := range probes {
			got, ok := c.find(id)
			want, wantOK := first[id]
			if ok != wantOK || got != want {
				t.Errorf("%s: find(%d) = %d, %v; want %d, %v", tc.name, id, got, ok, want, wantOK)
			}
		}
	}
}
