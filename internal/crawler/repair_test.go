package crawler

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"steamstudy/internal/dataset"
)

// journalPair builds a referentially consistent journal: two mutual
// friends sharing a group, owning journaled catalog entries.
func journalPair(t *testing.T, dir string) *dataset.Snapshot {
	t.Helper()
	jr, _, err := openJournal(dir, 0, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	u1 := &dataset.UserRecord{SteamID: 1,
		Friends: []dataset.FriendRecord{{SteamID: 2, Since: 10}},
		Games:   []dataset.OwnershipRecord{{AppID: 10, TotalMinutes: 120, TwoWeekMinutes: 60}},
		Groups:  []uint64{7}}
	u2 := &dataset.UserRecord{SteamID: 2,
		Friends: []dataset.FriendRecord{{SteamID: 1, Since: 10}}}
	for _, u := range []*dataset.UserRecord{u2, u1} { // out of ID order on purpose
		if err := jr.appendUser(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := jr.appendGame(&dataset.GameRecord{AppID: 10, Name: "Alpha", Type: "game"}); err != nil {
		t.Fatal(err)
	}
	if err := jr.appendAch(10, []dataset.AchievementRecord{{Name: "ACH_0", Percent: 50}}); err != nil {
		t.Fatal(err)
	}
	if err := jr.appendGroup(&dataset.GroupRecord{GID: 7, Name: "grp", Members: []uint64{1}}); err != nil {
		t.Fatal(err)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	return &dataset.Snapshot{
		Users: []dataset.UserRecord{*u1, *u2},
		Games: []dataset.GameRecord{{AppID: 10, Name: "Alpha", Type: "game",
			Achievements: []dataset.AchievementRecord{{Name: "ACH_0", Percent: 50}}}},
		Groups: []dataset.GroupRecord{{GID: 7, Name: "grp", Members: []uint64{1}}},
	}
}

func TestRebuildFromJournal(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "j")
	want := journalPair(t, dir)
	got, err := RebuildFromJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Canonical ID order and attached achievements — the same shape an
	// uninterrupted Run produces.
	if !reflect.DeepEqual(got.Users, want.Users) {
		t.Fatalf("rebuilt users:\n%+v\nwant:\n%+v", got.Users, want.Users)
	}
	if !reflect.DeepEqual(got.Games, want.Games) {
		t.Fatalf("rebuilt games:\n%+v\nwant:\n%+v", got.Games, want.Games)
	}
	if !reflect.DeepEqual(got.Groups, want.Groups) {
		t.Fatalf("rebuilt groups:\n%+v\nwant:\n%+v", got.Groups, want.Groups)
	}
	if rep := got.Fsck(); !rep.Clean() {
		t.Fatalf("rebuilt snapshot dirty:\n%s", rep)
	}
}

// The acceptance path: corrupt a snapshot, fsck flags it, journal-backed
// repair restores a byte-verifiable, fsck-clean artifact and preserves
// the original collection timestamp.
func TestRepairSnapshotRestoresClean(t *testing.T) {
	tmp := t.TempDir()
	jdir := filepath.Join(tmp, "j")
	journalPair(t, jdir)
	path := filepath.Join(tmp, "snap.jsonl.gz")
	snap, err := RebuildFromJournal(jdir)
	if err != nil {
		t.Fatal(err)
	}
	snap.CollectedAt = 1_234_567
	if err := snap.Save(path); err != nil {
		t.Fatal(err)
	}

	// Bit-flip the payload: fsck must notice.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := dataset.FsckFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("corrupted snapshot passed fsck")
	}

	im := &dataset.IntegrityMetrics{}
	rep2, err := RepairSnapshot(jdir, path, im)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Clean() {
		t.Fatalf("post-repair fsck dirty:\n%s", rep2)
	}
	if im.Repairs.Load() != 1 {
		t.Fatalf("Repairs counter = %d, want 1", im.Repairs.Load())
	}
	got, err := dataset.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.CollectedAt != 1_234_567 {
		t.Fatalf("repair lost the collection timestamp: %d", got.CollectedAt)
	}
	if !reflect.DeepEqual(got.Users, snap.Users) {
		t.Fatal("repair changed the data")
	}
}

// A snapshot deleted outright (not just damaged) is also repairable: the
// journal is the source of truth.
func TestRepairSnapshotFromScratch(t *testing.T) {
	tmp := t.TempDir()
	jdir := filepath.Join(tmp, "j")
	journalPair(t, jdir)
	path := filepath.Join(tmp, "snap.jsonl")
	rep, err := RepairSnapshot(jdir, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("repair-from-scratch dirty:\n%s", rep)
	}
}

func TestCompactJournalExported(t *testing.T) {
	tmp := t.TempDir()
	jdir := filepath.Join(tmp, "j")
	journalPair(t, jdir)
	if err := CompactJournal(jdir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(jdir, baseMetaName)); err != nil {
		t.Fatalf("no base after CompactJournal: %v", err)
	}
	snap, err := RebuildFromJournal(jdir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Users) != 2 || len(snap.Games) != 1 || len(snap.Groups) != 1 {
		t.Fatalf("post-compact rebuild lost records: %d/%d/%d",
			len(snap.Users), len(snap.Games), len(snap.Groups))
	}
}
