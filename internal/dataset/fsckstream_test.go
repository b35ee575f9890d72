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

// compareReports asserts the streaming sharded fsck produced the same
// report as the in-memory single-file fsck: shape, verification counts,
// and every violation class with its sample prefix.
func compareReports(t *testing.T, single, sharded *Report) {
	t.Helper()
	if single.Users != sharded.Users || single.Games != sharded.Games || single.Groups != sharded.Groups {
		t.Fatalf("shape: single %d/%d/%d, sharded %d/%d/%d",
			single.Users, single.Games, single.Groups, sharded.Users, sharded.Games, sharded.Groups)
	}
	if single.ManifestVerified != sharded.ManifestVerified {
		t.Fatalf("ManifestVerified: single %v, sharded %v", single.ManifestVerified, sharded.ManifestVerified)
	}
	if single.RecordsVerified != sharded.RecordsVerified {
		t.Fatalf("RecordsVerified: single %d, sharded %d", single.RecordsVerified, sharded.RecordsVerified)
	}
	if !reflect.DeepEqual(single.Counts, sharded.Counts) {
		t.Fatalf("Counts diverge:\nsingle  %v\nsharded %v", single.Counts, sharded.Counts)
	}
	if !reflect.DeepEqual(single.Samples, sharded.Samples) {
		t.Fatalf("Samples diverge:\nsingle  %v\nsharded %v", single.Samples, sharded.Samples)
	}
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

// The streaming fsck must produce the same report as the in-memory pass
// on a clean generated universe — large enough that sections span many
// segments and the ID census, edge index and membership index all get
// real traffic.
func TestFsckShardedMatchesInMemoryClean(t *testing.T) {
	s := testSnapshot(t)
	single, sharded := saveBoth(t, s)
	rs, err := FsckFile(single, nil)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := FsckFile(sharded, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Clean() || !rd.Clean() {
		t.Fatalf("expected clean reports:\nsingle: %s\nsharded: %s", rs, rd)
	}
	compareReports(t, rs, rd)
}

// Every referential violation class must be detected by the streaming
// pass with the same counts and sample strings as the in-memory pass.
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
	}

	for _, tc := range mutations {
		t.Run(tc.name, func(t *testing.T) {
			s := testSnapshot(t)
			tc.mutate(s)
			single, sharded := saveBoth(t, s)
			rs, err := FsckFile(single, nil)
			if err != nil {
				t.Fatal(err)
			}
			rd, err := FsckFile(sharded, nil)
			if err != nil {
				t.Fatal(err)
			}
			if rs.Clean() {
				t.Fatalf("mutation %s produced a clean report", tc.name)
			}
			if tc.class != "" && rs.Counts[tc.class] <= maxSamplesPerClass {
				t.Fatalf("%s reported %d times, want more than %d", tc.class, rs.Counts[tc.class], maxSamplesPerClass)
			}
			compareReports(t, rs, rd)
			compareInMemory(t, s, rs)
		})
	}

	t.Run("all-stacked", func(t *testing.T) {
		s := testSnapshot(t)
		for _, tc := range mutations {
			tc.mutate(s)
		}
		single, sharded := saveBoth(t, s)
		rs, err := FsckFile(single, nil)
		if err != nil {
			t.Fatal(err)
		}
		rd, err := FsckFile(sharded, nil)
		if err != nil {
			t.Fatal(err)
		}
		compareReports(t, rs, rd)
		compareInMemory(t, s, rs)
	})
}

// compareInMemory asserts Snapshot.Fsck on the decoded snapshot reports
// the same violations as FsckFile did on its single-file form.
func compareInMemory(t *testing.T, s *Snapshot, file *Report) {
	t.Helper()
	mem := s.Fsck()
	if mem.RecordsVerified != file.RecordsVerified {
		t.Fatalf("RecordsVerified: in-memory %d, file %d", mem.RecordsVerified, file.RecordsVerified)
	}
	if !reflect.DeepEqual(mem.Counts, file.Counts) {
		t.Fatalf("Counts diverge:\nin-memory %v\nfile      %v", mem.Counts, file.Counts)
	}
	if !reflect.DeepEqual(mem.Samples, file.Samples) {
		t.Fatalf("Samples diverge:\nin-memory %v\nfile      %v", mem.Samples, file.Samples)
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
