package crawler

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"steamstudy/internal/dataset"
)

func testUser(id uint64) *dataset.UserRecord {
	return &dataset.UserRecord{
		SteamID: id,
		Created: int64(id) * 100,
		Country: "DE",
		Friends: []dataset.FriendRecord{{SteamID: id + 1, Since: 42}},
		Games:   []dataset.OwnershipRecord{{AppID: 10, TotalMinutes: 60}},
		Groups:  []uint64{7},
	}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "j")
	jr, st, err := openJournal(dir, 0, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.users) != 0 || st.phaseDone[2] {
		t.Fatal("fresh journal replayed state")
	}
	u1, u2 := testUser(100), testUser(200)
	if err := jr.appendUser(u1); err != nil {
		t.Fatal(err)
	}
	if err := jr.appendUser(u2); err != nil {
		t.Fatal(err)
	}
	if err := jr.appendPhaseDone(2); err != nil {
		t.Fatal(err)
	}
	game := &dataset.GameRecord{AppID: 10, Name: "g", Genres: []string{"RPG"}}
	if err := jr.appendGame(game); err != nil {
		t.Fatal(err)
	}
	if err := jr.appendAch(10, []dataset.AchievementRecord{{Name: "ACH_0", Percent: 12.5}}); err != nil {
		t.Fatal(err)
	}
	group := &dataset.GroupRecord{GID: 7, Name: "grp", Members: []uint64{100, 200}}
	if err := jr.appendGroup(group); err != nil {
		t.Fatal(err)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}

	m := &Metrics{}
	jr2, st2, err := openJournal(dir, 0, m)
	if err != nil {
		t.Fatal(err)
	}
	defer jr2.Close()
	if len(st2.users) != 2 || !reflect.DeepEqual(st2.users[0], *u1) || !reflect.DeepEqual(st2.users[1], *u2) {
		t.Fatalf("users replayed wrong: %+v", st2.users)
	}
	if !st2.phaseDone[2] || st2.phaseDone[3] {
		t.Fatalf("phase markers replayed wrong: %v", st2.phaseDone)
	}
	if len(st2.games) != 1 || !reflect.DeepEqual(st2.games[0], *game) {
		t.Fatalf("games replayed wrong: %+v", st2.games)
	}
	if !st2.achDone[10] || len(st2.ach[10]) != 1 || st2.ach[10][0].Name != "ACH_0" {
		t.Fatalf("achievements replayed wrong: %+v", st2.ach)
	}
	if len(st2.groups) != 1 || !reflect.DeepEqual(st2.groups[0], *group) {
		t.Fatalf("groups replayed wrong: %+v", st2.groups)
	}
	if m.JournalRecords.Load() != 6 {
		t.Fatalf("replayed %d records, want 6", m.JournalRecords.Load())
	}
}

func TestJournalTornTailTolerated(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "j")
	jr, _, err := openJournal(dir, 0, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 3; id++ {
		if err := jr.appendUser(testUser(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: chop bytes off the final record.
	seg := filepath.Join(dir, segName(1))
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-7); err != nil {
		t.Fatal(err)
	}

	jr2, st, err := openJournal(dir, 0, &Metrics{})
	if err != nil {
		t.Fatalf("torn tail not tolerated: %v", err)
	}
	if len(st.users) != 2 {
		t.Fatalf("replayed %d users, want 2 whole records", len(st.users))
	}
	// The journal stays appendable after the tear, and the new record
	// lands where the torn one was.
	if err := jr2.appendUser(testUser(99)); err != nil {
		t.Fatal(err)
	}
	if err := jr2.Close(); err != nil {
		t.Fatal(err)
	}
	_, st3, err := openJournal(dir, 0, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	if len(st3.users) != 3 || st3.users[2].SteamID != 99 {
		t.Fatalf("post-tear append lost: %+v", st3.users)
	}
}

func TestJournalCorruptTailChecksumTolerated(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "j")
	jr, _, err := openJournal(dir, 0, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	if err := jr.appendUser(testUser(1)); err != nil {
		t.Fatal(err)
	}
	if err := jr.appendUser(testUser(2)); err != nil {
		t.Fatal(err)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the final record's payload: the length is
	// intact but the CRC catches the rot, and replay drops only that
	// record.
	seg := filepath.Join(dir, segName(1))
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-3] ^= 0xFF
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, st, err := openJournal(dir, 0, &Metrics{})
	if err != nil {
		t.Fatalf("corrupt tail record not tolerated: %v", err)
	}
	if len(st.users) != 1 || st.users[0].SteamID != 1 {
		t.Fatalf("replayed %+v, want just user 1", st.users)
	}
}

func TestJournalSegmentRotation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "j")
	m := &Metrics{}
	// Tiny segments force rotation every couple of records.
	jr, _, err := openJournal(dir, 256, m)
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for id := uint64(1); id <= n; id++ {
		if err := jr.appendUser(testUser(id)); err != nil {
			t.Fatal(err)
		}
	}
	seg, _ := jr.Position()
	if seg < 3 {
		t.Fatalf("only %d segments after %d oversized appends", seg, n)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	// Sealed segments never exceed the cap by more than one record and,
	// crucially, are never touched again: appends only ever grow the
	// newest segment.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != seg {
		t.Fatalf("%d segment files, Position says %d", len(entries), seg)
	}
	_, st, err := openJournal(dir, 256, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.users) != n {
		t.Fatalf("replayed %d users across segments, want %d", len(st.users), n)
	}
	for i, u := range st.users {
		if u.SteamID != uint64(i+1) {
			t.Fatalf("replay order broken at %d: %d", i, u.SteamID)
		}
	}
}

func TestJournalResumeAppendsToLastSegment(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "j")
	jr, _, err := openJournal(dir, 256, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 10; id++ {
		if err := jr.appendUser(testUser(id)); err != nil {
			t.Fatal(err)
		}
	}
	segBefore, _ := jr.Position()
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	jr2, _, err := openJournal(dir, 256, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	segAfter, _ := jr2.Position()
	if segAfter != segBefore {
		t.Fatalf("reopen jumped from segment %d to %d", segBefore, segAfter)
	}
	if err := jr2.appendUser(testUser(11)); err != nil {
		t.Fatal(err)
	}
	if err := jr2.Close(); err != nil {
		t.Fatal(err)
	}
	_, st, err := openJournal(dir, 256, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.users) != 11 {
		t.Fatalf("replayed %d users, want 11", len(st.users))
	}
}

// A unit of work journaled twice — a crash can land between the append
// hitting disk and the in-memory ack, so the successor redoes it — must
// replay as ONE record, and the later (younger) observation wins.
func TestJournalReplayDeduplicates(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "j")
	jr, _, err := openJournal(dir, 0, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	stale := testUser(100)
	stale.Country = "DE"
	if err := jr.appendUser(stale); err != nil {
		t.Fatal(err)
	}
	if err := jr.appendUser(testUser(200)); err != nil {
		t.Fatal(err)
	}
	fresh := testUser(100)
	fresh.Country = "SE"
	fresh.Games = append(fresh.Games, dataset.OwnershipRecord{AppID: 20, TotalMinutes: 5})
	if err := jr.appendUser(fresh); err != nil {
		t.Fatal(err)
	}
	// Same story for games and groups.
	if err := jr.appendGame(&dataset.GameRecord{AppID: 10, Name: "old name"}); err != nil {
		t.Fatal(err)
	}
	if err := jr.appendGame(&dataset.GameRecord{AppID: 10, Name: "new name"}); err != nil {
		t.Fatal(err)
	}
	if err := jr.appendGroup(&dataset.GroupRecord{GID: 7, Name: "old"}); err != nil {
		t.Fatal(err)
	}
	if err := jr.appendGroup(&dataset.GroupRecord{GID: 7, Name: "new"}); err != nil {
		t.Fatal(err)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}

	_, st, err := openJournal(dir, 0, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.users) != 2 {
		t.Fatalf("replayed %d users, want 2 (dedup failed): %+v", len(st.users), st.users)
	}
	if !reflect.DeepEqual(st.users[0], *fresh) {
		t.Fatalf("dedup kept the stale record: %+v", st.users[0])
	}
	if st.users[1].SteamID != 200 {
		t.Fatalf("dedup disturbed record order: %+v", st.users)
	}
	if len(st.games) != 1 || st.games[0].Name != "new name" {
		t.Fatalf("game dedup wrong: %+v", st.games)
	}
	if len(st.groups) != 1 || st.groups[0].Name != "new" {
		t.Fatalf("group dedup wrong: %+v", st.groups)
	}
}

// The append crashpoint fires after the record is durable but before the
// caller is acked — exactly the double-journal scenario dedup exists for.
func TestJournalCrashBetweenAppendAndAck(t *testing.T) {
	defer func() { journalCrashHook = nil }()
	dir := filepath.Join(t.TempDir(), "j")
	jr, _, err := openJournal(dir, 0, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	injected := errors.New("simulated crash")
	journalCrashHook = func(point string) error {
		if point == "append" {
			return injected
		}
		return nil
	}
	if err := jr.appendUser(testUser(1)); !errors.Is(err, injected) {
		t.Fatalf("want injected crash, got %v", err)
	}
	journalCrashHook = nil
	jr.Close()

	// The successor replays the unacked record, redoes the work, and
	// appends it again; the double record must not double-count.
	jr2, st, err := openJournal(dir, 0, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.users) != 1 {
		t.Fatalf("unacked append lost or doubled: %d users", len(st.users))
	}
	if err := jr2.appendUser(testUser(1)); err != nil {
		t.Fatal(err)
	}
	jr2.Close()
	_, st2, err := openJournal(dir, 0, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	if len(st2.users) != 1 {
		t.Fatalf("redone work double-counted: %d users", len(st2.users))
	}
}

func TestJournalCompact(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "j")
	m := &Metrics{}
	jr, _, err := openJournal(dir, 256, m) // tiny segments: force several
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 20; id++ {
		if err := jr.appendUser(testUser(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := jr.appendGame(&dataset.GameRecord{AppID: 10, Name: "g"}); err != nil {
		t.Fatal(err)
	}
	if err := jr.appendPhaseDone(2); err != nil {
		t.Fatal(err)
	}
	jr.Close()

	jr2, st2, err := openJournal(dir, 256, m)
	if err != nil {
		t.Fatal(err)
	}
	segsBefore, _ := jr2.Position()
	if segsBefore < 3 {
		t.Fatalf("test setup: want several segments, have %d", segsBefore)
	}
	if err := jr2.Compact(st2); err != nil {
		t.Fatal(err)
	}
	// Sealed segments are gone; base + one fresh active segment remain.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	// The base is three files: the snapshot, its manifest and the sidecar.
	if len(entries) != 4 {
		t.Fatalf("after compact: %v, want base + one active segment", names)
	}
	// Still appendable after compaction.
	if err := jr2.appendUser(testUser(99)); err != nil {
		t.Fatal(err)
	}
	jr2.Close()

	// Replay = base + tail, identical state to before plus the new append.
	_, st3, err := openJournal(dir, 256, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	if len(st3.users) != 21 || st3.users[20].SteamID != 99 {
		t.Fatalf("post-compact replay wrong: %d users", len(st3.users))
	}
	for i := 0; i < 20; i++ {
		if !reflect.DeepEqual(st3.users[i], *testUser(uint64(i + 1))) {
			t.Fatalf("compact corrupted user %d: %+v", i+1, st3.users[i])
		}
	}
	if len(st3.games) != 1 || !st3.phaseDone[2] {
		t.Fatal("compact lost games or phase markers")
	}
}

// A crash after the base is published but before the sealed segments are
// deleted must not duplicate records: the next open sweeps the leftovers.
func TestJournalCompactCrashLeavesNoDuplicates(t *testing.T) {
	defer func() { journalCrashHook = nil }()
	dir := filepath.Join(t.TempDir(), "j")
	jr0, _, err := openJournal(dir, 256, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 12; id++ {
		if err := jr0.appendUser(testUser(id)); err != nil {
			t.Fatal(err)
		}
	}
	jr0.Close()
	jr, st, err := openJournal(dir, 256, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	injected := errors.New("simulated crash")
	journalCrashHook = func(point string) error {
		if point == "compact-sealed" {
			return injected
		}
		return nil
	}
	if err := jr.Compact(st); !errors.Is(err, injected) {
		t.Fatalf("want injected crash, got %v", err)
	}
	journalCrashHook = nil

	// Base and the sealed segments now coexist on disk.
	entries, _ := os.ReadDir(dir)
	if len(entries) < 3 {
		t.Fatalf("test setup: want base + leftover segments, have %d files", len(entries))
	}
	m := &Metrics{}
	jr2, st2, err := openJournal(dir, 256, m)
	if err != nil {
		t.Fatal(err)
	}
	defer jr2.Close()
	if len(st2.users) != 12 {
		t.Fatalf("replayed %d users after compact crash, want 12 (no duplicates)", len(st2.users))
	}
	// The leftovers were swept.
	entries, _ = os.ReadDir(dir)
	for _, e := range entries {
		if n, ok := segSeq(e.Name()); ok && n <= 12 {
			// Only the fresh active segment (seq = upTo+1) may remain.
			seg, _ := jr2.Position()
			if n != seg {
				t.Fatalf("sealed segment %s not swept", e.Name())
			}
		}
	}
}

// A corrupt base is fatal on open: the segments it sealed are gone, so
// there is no safe way to resume from half a base.
func TestJournalCorruptBaseIsFatal(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "j")
	jr, st, err := openJournal(dir, 0, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 3; id++ {
		if err := jr.appendUser(testUser(id)); err != nil {
			t.Fatal(err)
		}
	}
	// Compacting the instance that appended would drop those records from
	// st; the guard refuses, and a reopen compacts safely.
	if err := jr.Compact(st); err == nil {
		t.Fatal("compact with stale state accepted")
	}
	jr.Close()
	jr2, st2, err := openJournal(dir, 0, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	if err := jr2.Compact(st2); err != nil {
		t.Fatal(err)
	}
	jr2.Close()
	var meta baseMeta
	if found, err := readJSON(dir, baseMetaName, &meta); !found || err != nil {
		t.Fatalf("no committed base: %v", err)
	}
	base := filepath.Join(dir, baseFile(meta.UpToSeq))
	b, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xFF
	if err := os.WriteFile(base, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openJournal(dir, 0, &Metrics{}); err == nil {
		t.Fatal("corrupt base tolerated")
	}
}

// A base whose bytes decode cleanly but disagree with its manifest is
// fatal on every open that replays it — the owner resuming, a takeover
// at a higher epoch, an epoch-0 reader — and so for RebuildFromJournal
// and CompactJournal: the Reader hashes the base as it streams it, and
// the check runs once the stream ends.
func TestJournalBaseManifestMismatchIsFatal(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "j")
	jr, _, err := openJournalAt(dir, 0, &Metrics{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 3; id++ {
		if err := jr.appendUser(testUser(id)); err != nil {
			t.Fatal(err)
		}
	}
	jr.Close()
	jr, st, err := openJournalAt(dir, 0, &Metrics{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := jr.Compact(st); err != nil {
		t.Fatal(err)
	}
	jr.Close()
	var meta baseMeta
	if found, err := readJSON(dir, baseMetaName, &meta); !found || err != nil {
		t.Fatalf("no committed base: %v", err)
	}
	base := filepath.Join(dir, baseFile(meta.UpToSeq))
	good, err := os.ReadFile(dataset.ManifestPath(base))
	if err != nil {
		t.Fatal(err)
	}
	var man dataset.Manifest
	if err := json.Unmarshal(good, &man); err != nil {
		t.Fatal(err)
	}
	if man.FileSHA256[0] == '0' {
		man.FileSHA256 = "1" + man.FileSHA256[1:]
	} else {
		man.FileSHA256 = "0" + man.FileSHA256[1:]
	}
	bad, err := json.Marshal(&man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dataset.ManifestPath(base), bad, 0o644); err != nil {
		t.Fatal(err)
	}

	// The base's records still decode; only the raw-byte check fails.
	r, err := dataset.OpenReader(base)
	if err != nil {
		t.Fatal(err)
	}
	var rec dataset.Record
	n := 0
	for {
		ok, err := r.Next(&rec)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if n != 3 || r.VerifyBytes() == nil {
		t.Fatalf("setup: %d records decoded, VerifyBytes %v", n, r.VerifyBytes())
	}
	r.Close()

	opens := map[string]func() error{
		"owner":    func() error { _, _, err := openJournalAt(dir, 0, &Metrics{}, 1); return err },
		"takeover": func() error { _, _, err := openJournalAt(dir, 0, &Metrics{}, 2); return err },
		"reader":   func() error { _, _, err := openJournalAt(dir, 0, &Metrics{}, 0); return err },
		"rebuild":  func() error { _, err := RebuildFromJournal(dir); return err },
		"compact":  func() error { return CompactJournal(dir) },
	}
	for name, open := range opens {
		if err := open(); err == nil || !strings.Contains(err.Error(), "file hash mismatch") {
			t.Errorf("%s: want the base's file hash mismatch, got %v", name, err)
		}
	}

	// With its manifest restored the same base replays.
	if err := os.WriteFile(dataset.ManifestPath(base), good, 0o644); err != nil {
		t.Fatal(err)
	}
	jr, st, err = openJournalAt(dir, 0, &Metrics{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	jr.Close()
	if len(st.users) != 3 {
		t.Fatalf("restored base replayed %d users, want 3", len(st.users))
	}
}
