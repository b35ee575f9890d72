package crawler

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"steamstudy/internal/dataset"
)

// frameRecord encodes one user record with the length+CRC framing the
// append path uses, so tests can forge segment contents byte-for-byte.
func frameRecord(t *testing.T, u *dataset.UserRecord) []byte {
	t.Helper()
	b, err := encodeRecord(&journalRecord{Kind: kindUser, Line: dataset.Record{Kind: dataset.KindUser, User: *u}})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFenceReadWriteRoundTrip(t *testing.T) {
	dir := t.TempDir()
	f, err := ReadFence(dir)
	if err != nil || f.Epoch != 0 || f.Seals != nil {
		t.Fatalf("missing fence should read as zero: %+v, %v", f, err)
	}
	want := Fence{Epoch: 3, Seals: map[int]int64{1: 128, 2: 16}}
	if err := writeFence(dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFence(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != want.Epoch || len(got.Seals) != 2 || got.Seals[1] != 128 || got.Seals[2] != 16 {
		t.Fatalf("fence round trip: got %+v, want %+v", got, want)
	}
}

func TestJournalOpenBelowFenceRejected(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "j")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writeFence(dir, Fence{Epoch: 3}); err != nil {
		t.Fatal(err)
	}
	m := &Metrics{}
	if _, _, err := openJournalAt(dir, 0, m, 2); !errors.Is(err, ErrFenced) {
		t.Fatalf("open below fence: want ErrFenced, got %v", err)
	}
	if m.FenceRejections.Load() != 1 {
		t.Fatalf("FenceRejections = %d, want 1", m.FenceRejections.Load())
	}
	// The fence's own epoch and anything above it still open fine.
	for _, epoch := range []uint64{3, 4} {
		jr, _, err := openJournalAt(dir, 0, &Metrics{}, epoch)
		if err != nil {
			t.Fatalf("open at epoch %d: %v", epoch, err)
		}
		jr.Close()
	}
}

// TestJournalAppendBelowFenceRejected is the zombie scenario in
// miniature: a paused epoch-1 writer holds an open handle while an
// epoch-2 takeover seals its segment; the zombie's next append must fail
// with ErrFenced and leave no trace in any future replay.
func TestJournalAppendBelowFenceRejected(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "j")
	mz := &Metrics{}
	zombie, _, err := openJournalAt(dir, 0, mz, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := zombie.appendUser(testUser(1)); err != nil {
		t.Fatal(err)
	}

	// Takeover: a successor opens the same directory at epoch 2. The
	// zombie's pre-takeover record must replay into the successor's state.
	succ, st, err := openJournalAt(dir, 0, &Metrics{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.users) != 1 || st.users[0].SteamID != 1 {
		t.Fatalf("takeover replayed %+v, want the pre-takeover user", st.users)
	}
	if err := succ.appendUser(testUser(2)); err != nil {
		t.Fatal(err)
	}

	// The zombie wakes up and tries to keep writing.
	if err := zombie.appendUser(testUser(99)); !errors.Is(err, ErrFenced) {
		t.Fatalf("zombie append: want ErrFenced, got %v", err)
	}
	if mz.FenceRejections.Load() != 1 {
		t.Fatalf("zombie FenceRejections = %d, want 1", mz.FenceRejections.Load())
	}
	zombie.Close()
	if err := succ.Close(); err != nil {
		t.Fatal(err)
	}

	// Final state: the pre-takeover record and the successor's, nothing
	// from the fenced-out append.
	_, st2, err := openJournalAt(dir, 0, &Metrics{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(st2.users) != 2 || st2.users[0].SteamID != 1 || st2.users[1].SteamID != 2 {
		t.Fatalf("final replay %+v, want users 1 and 2", st2.users)
	}
}

// TestJournalSealClampsLateAppends: even bytes that do land after a
// takeover (a write already in flight when the fence was published) sit
// beyond the seal and are invisible to every replay.
func TestJournalSealClampsLateAppends(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "j")
	w1, _, err := openJournalAt(dir, 0, &Metrics{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w1.appendUser(testUser(1)); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segName(w1.seq))
	w1.Close()

	w2, _, err := openJournalAt(dir, 0, &Metrics{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	w2.Close()

	// Simulate the zombie's in-flight write landing at OS level, past the
	// seal: a perfectly well-formed record appended straight to the file.
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frameRecord(t, testUser(666))); err != nil {
		t.Fatal(err)
	}
	f.Close()

	for _, epoch := range []uint64{0, 2} {
		_, st, err := openJournalAt(dir, 0, &Metrics{}, epoch)
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		if len(st.users) != 1 || st.users[0].SteamID != 1 {
			t.Fatalf("epoch %d replayed %+v; the late append leaked past the seal", epoch, st.users)
		}
	}
}

// TestJournalReplaySkipsBelowFenceSegments: an unsealed segment whose
// header names an epoch below the fence (a fenced-out writer's rotation
// racing the takeover's directory listing) is skipped whole.
func TestJournalReplaySkipsBelowFenceSegments(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "j")
	w1, _, err := openJournalAt(dir, 0, &Metrics{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w1.appendUser(testUser(1)); err != nil {
		t.Fatal(err)
	}
	w1.Close()
	w2, _, err := openJournalAt(dir, 0, &Metrics{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.appendUser(testUser(2)); err != nil {
		t.Fatal(err)
	}
	w2.Close()

	// Forge the zombie's racing rotation: a fresh segment at the next
	// sequence, epoch-1 header, one valid record, never sealed.
	var hdr [segHeaderSize]byte
	copy(hdr[0:4], segMagic)
	binary.BigEndian.PutUint32(hdr[4:8], segHeaderVersion)
	binary.BigEndian.PutUint64(hdr[8:16], 1)
	forged := append(hdr[:], frameRecord(t, testUser(666))...)
	if err := os.WriteFile(filepath.Join(dir, segName(w2.seq+1)), forged, 0o644); err != nil {
		t.Fatal(err)
	}

	_, st, err := openJournalAt(dir, 0, &Metrics{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.users) != 2 || st.users[0].SteamID != 1 || st.users[1].SteamID != 2 {
		t.Fatalf("replay %+v, want only users 1 and 2 (forged below-fence segment skipped)", st.users)
	}
}

// TestJournalReadonlyOnFencedDir: an epoch-zero open of a fenced
// directory (merge, rebuild) replays but must refuse appends and
// compaction, and must not repair torn tails it does not own.
func TestJournalReadonlyOnFencedDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "j")
	w1, _, err := openJournalAt(dir, 0, &Metrics{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w1.appendUser(testUser(1)); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segName(w1.seq))
	w1.Close()

	// Tear the live owner's tail at OS level (an in-flight append).
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	torn := info.Size() + 5
	if err := os.Truncate(seg, torn); err != nil {
		t.Fatal(err)
	}

	rd, st, err := openJournalAt(dir, 0, &Metrics{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.users) != 1 {
		t.Fatalf("readonly replay %+v, want 1 user", st.users)
	}
	if err := rd.appendUser(testUser(2)); !errors.Is(err, ErrFenced) {
		t.Fatalf("readonly append: want ErrFenced, got %v", err)
	}
	if err := rd.Compact(st); !errors.Is(err, ErrFenced) {
		t.Fatalf("readonly compact: want ErrFenced, got %v", err)
	}
	rd.Close()
	if info, err = os.Stat(seg); err != nil {
		t.Fatal(err)
	}
	if info.Size() != torn {
		t.Fatalf("readonly open truncated the live owner's segment to %d bytes", info.Size())
	}
}
