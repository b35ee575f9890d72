// Segment-boundary edge cases: the rotation threshold is exactly where a
// torn write is most confusable — a segment sealed at precisely maxSeg
// bytes looks complete, an empty successor looks missing, and a tear in
// the first record of a fresh segment leaves a file that is all garbage.
// These tests pin record sizes so the tear lands exactly on the boundary,
// and race Compact against a concurrent appender under -race.

package crawler

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"steamstudy/internal/dataset"
)

// boundaryUser builds records whose JSONL line is the same byte length
// for every id in [1000, 2000): every number written from the id (the
// SteamID, the friend's id+1, Created = id*100) keeps its count of
// decimal digits, so segment arithmetic below is exact.
func boundaryUser(id uint64) *dataset.UserRecord {
	return &dataset.UserRecord{
		SteamID: id,
		Created: int64(id) * 100,
		Country: "DE",
		Friends: []dataset.FriendRecord{{SteamID: id + 1, Since: 1042}},
		Games:   []dataset.OwnershipRecord{{AppID: 1010, TotalMinutes: 1060}},
		Groups:  []uint64{1007},
	}
}

// measureRecord returns the on-disk byte size of one boundaryUser record,
// header included, by appending it to a scratch journal.
func measureRecord(t *testing.T) int64 {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "scratch")
	jr, _, err := openJournal(dir, 0, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	if err := jr.appendUser(boundaryUser(1000)); err != nil {
		t.Fatal(err)
	}
	_, off := jr.Position()
	if off <= recHeaderSize {
		t.Fatalf("measured record size %d is implausible", off)
	}
	return off
}

// fillSegments appends n boundary users with maxSeg pinned to exactly
// recSize*perSeg, so every sealed segment is byte-for-byte full.
func fillSegments(t *testing.T, dir string, recSize int64, perSeg, n int) {
	t.Helper()
	jr, _, err := openJournal(dir, recSize*int64(perSeg), &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := jr.appendUser(boundaryUser(uint64(1000 + i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalSegmentSealedAtExactCapacity: a record that lands exactly at
// maxSeg must NOT rotate early (the cap is "never exceed", not "stay
// under"), and the next append must open a fresh segment. The sealed file
// is exactly maxSeg bytes — the shape most likely to be mistaken for a
// truncation.
func TestJournalSegmentSealedAtExactCapacity(t *testing.T) {
	recSize := measureRecord(t)
	dir := filepath.Join(t.TempDir(), "j")
	const perSeg = 3
	fillSegments(t, dir, recSize, perSeg, perSeg+1) // 3 fill seg 1 exactly, 1 spills into seg 2

	info, err := os.Stat(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != recSize*perSeg {
		t.Fatalf("sealed segment is %d bytes, want exactly maxSeg=%d", info.Size(), recSize*perSeg)
	}
	info, err = os.Stat(filepath.Join(dir, segName(2)))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != recSize {
		t.Fatalf("spill segment is %d bytes, want one record=%d", info.Size(), recSize)
	}
	jr, st, err := openJournal(dir, recSize*perSeg, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	if len(st.users) != perSeg+1 {
		t.Fatalf("replayed %d users, want %d", len(st.users), perSeg+1)
	}
}

// TestJournalTornWriteAtSegmentBoundary: the crash lands mid-way through
// the FIRST record after a rotation — the new segment holds nothing but a
// partial record. Replay must truncate it to empty, resume appending
// there, and lose exactly the unacked record. Both tear shapes are
// exercised: inside the payload and inside the 8-byte header itself.
func TestJournalTornWriteAtSegmentBoundary(t *testing.T) {
	recSize := measureRecord(t)
	const perSeg = 3
	for _, tc := range []struct {
		name string
		keep int64 // bytes of the torn record left on disk
	}{
		{"mid-payload", recSize - 5},
		{"mid-header", recHeaderSize - 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "j")
			// 3 records fill segment 1 exactly; the 4th rotates and is the
			// only record in segment 2 — then the "crash" tears it.
			fillSegments(t, dir, recSize, perSeg, perSeg+1)
			seg2 := filepath.Join(dir, segName(2))
			if err := os.Truncate(seg2, tc.keep); err != nil {
				t.Fatal(err)
			}

			maxSeg := recSize * perSeg
			jr, st, err := openJournal(dir, maxSeg, &Metrics{})
			if err != nil {
				t.Fatalf("torn first record of a fresh segment not tolerated: %v", err)
			}
			if len(st.users) != perSeg {
				t.Fatalf("replayed %d users, want the %d whole ones", len(st.users), perSeg)
			}
			// The tear was truncated away and the successor's re-append
			// lands at offset 0 of the same segment.
			if seg, off := jr.Position(); seg != 2 || off != 0 {
				t.Fatalf("resume position seg %d off %d, want seg 2 off 0", seg, off)
			}
			if err := jr.appendUser(boundaryUser(uint64(1000 + perSeg))); err != nil {
				t.Fatal(err)
			}
			if err := jr.Close(); err != nil {
				t.Fatal(err)
			}
			_, st2, err := openJournal(dir, maxSeg, &Metrics{})
			if err != nil {
				t.Fatal(err)
			}
			if len(st2.users) != perSeg+1 {
				t.Fatalf("post-tear append lost: %d users, want %d", len(st2.users), perSeg+1)
			}
		})
	}
}

// TestJournalEmptySegmentAfterRotationCrash: death exactly between "seal
// segment N" and "first write to segment N+1" leaves a zero-byte final
// segment. That is a legal journal: replay is a clean no-op and appends
// resume in the empty file.
func TestJournalEmptySegmentAfterRotationCrash(t *testing.T) {
	recSize := measureRecord(t)
	dir := filepath.Join(t.TempDir(), "j")
	const perSeg = 3
	fillSegments(t, dir, recSize, perSeg, perSeg) // segment 1 sealed exactly full
	// The rotation's OpenFile succeeded, the write never happened.
	empty, err := os.Create(filepath.Join(dir, segName(2)))
	if err != nil {
		t.Fatal(err)
	}
	empty.Close()

	jr, st, err := openJournal(dir, recSize*perSeg, &Metrics{})
	if err != nil {
		t.Fatalf("empty final segment not tolerated: %v", err)
	}
	if len(st.users) != perSeg {
		t.Fatalf("replayed %d users, want %d", len(st.users), perSeg)
	}
	if seg, off := jr.Position(); seg != 2 || off != 0 {
		t.Fatalf("resume position seg %d off %d, want seg 2 off 0", seg, off)
	}
	if err := jr.appendUser(boundaryUser(2000)); err != nil {
		t.Fatal(err)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	_, st2, err := openJournal(dir, recSize*perSeg, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	if len(st2.users) != perSeg+1 {
		t.Fatalf("append after empty-segment resume lost: %d users", len(st2.users))
	}
}

// TestJournalNonFinalCorruptionNamesSegmentAndOffset: corruption anywhere
// but the final tail is fatal — and the error must point an operator at
// the exact segment file and byte offset, because "record 4 somewhere in
// six months of journal" is not actionable on a real crawl.
func TestJournalNonFinalCorruptionNamesSegmentAndOffset(t *testing.T) {
	recSize := measureRecord(t)
	dir := filepath.Join(t.TempDir(), "j")
	const perSeg = 3
	fillSegments(t, dir, recSize, perSeg, 2*perSeg) // two full segments

	// Rot a byte inside segment 1's SECOND record: replay of a non-final
	// segment fails at record index 1, byte offset recSize.
	seg1 := filepath.Join(dir, segName(1))
	b, err := os.ReadFile(seg1)
	if err != nil {
		t.Fatal(err)
	}
	b[recSize+recHeaderSize+2] ^= 0xFF
	if err := os.WriteFile(seg1, b, 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, err = openJournal(dir, recSize*perSeg, &Metrics{})
	if err == nil {
		t.Fatal("corrupt non-final segment tolerated")
	}
	msg := err.Error()
	if !strings.Contains(msg, seg1) {
		t.Fatalf("error does not name the segment path %q: %v", seg1, err)
	}
	if !strings.Contains(msg, "record 1") || !strings.Contains(msg, "byte offset") {
		t.Fatalf("error does not locate the record and byte offset: %v", err)
	}
}

// TestJournalCompactRacesAppend drives Compact concurrently with a
// storm of appends. Compact refuses once any append has landed (its
// state argument would be stale), so exactly two outcomes are legal per
// call: success before the first append wins the lock, or the refusal
// error after. Either way every appended record must survive to replay,
// and the whole dance must be race-detector clean.
func TestJournalCompactRacesAppend(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "j")
	// Seed state so Compact has something to seal.
	fillSegments(t, dir, measureRecord(t), 3, 10)
	jr, st, err := openJournal(dir, 256, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}

	const appends = 100
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < appends; i++ {
			if err := jr.appendUser(boundaryUser(uint64(1100 + i))); err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
		}
	}()
	compactions, refusals := 0, 0
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if err := jr.Compact(st); err != nil {
				refusals++
				if !strings.Contains(err.Error(), "compact refused") {
					t.Errorf("compact failed with a non-refusal error: %v", err)
					return
				}
			} else {
				compactions++
			}
		}
	}()
	wg.Wait()
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d compactions won the race, %d refused", compactions, refusals)
	if refusals == 0 {
		t.Fatal("no compaction was ever refused; the race never happened")
	}

	_, st2, err := openJournal(dir, 256, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	if len(st2.users) != 10+appends {
		t.Fatalf("replayed %d users, want %d: compact raced an append into oblivion", len(st2.users), 10+appends)
	}
}
