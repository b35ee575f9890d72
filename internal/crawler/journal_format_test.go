package crawler

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"steamstudy/internal/dataset"
)

// dirFiles maps every file in dir to its bytes.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(b)
	}
	return files
}

// A journal of gob records, written by an older build, must be refused
// before any replay. Without the check its final segment would fail to
// decode and be truncated away as a torn tail.
func TestJournalRefusesOldFormat(t *testing.T) {
	gobSegment := framePayload([]byte("\x1f\xff\x81\x03\x01\x01\x0djournalRecord\x01\xff\x82"))
	for _, name := range []string{"journal-000001.seg", legacyBaseName} {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "j")
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, name), gobSegment, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "journal-000002.seg"), gobSegment[:5], 0o644); err != nil {
				t.Fatal(err)
			}
			before := dirFiles(t, dir)
			opens := map[string]func() error{
				"solo":     func() error { _, _, err := openJournal(dir, 0, &Metrics{}); return err },
				"takeover": func() error { _, _, err := openJournalAt(dir, 0, &Metrics{}, 3); return err },
				"rebuild":  func() error { _, err := RebuildFromJournal(dir); return err },
				"compact":  func() error { return CompactJournal(dir) },
			}
			for how, open := range opens {
				if err := open(); !errors.Is(err, ErrOldJournal) {
					t.Errorf("%s open: want ErrOldJournal, got %v", how, err)
				}
			}
			if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
				t.Fatalf("refused open changed the directory: %d files before, %d after", len(before), len(after))
			}
		})
	}
}

// richJournal journals one of every record shape compaction must carry:
// users with nil and empty lists, a re-journaled user, games whose
// achievement sets are a list, empty and nil, an achievement set with no
// game record, groups and phase markers.
func richJournal(t *testing.T, dir string) {
	t.Helper()
	jr, _, err := openJournal(dir, 512, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	user := func(u *dataset.UserRecord) *journalRecord {
		return &journalRecord{Kind: kindUser, Line: dataset.Record{Kind: dataset.KindUser, User: *u}}
	}
	game := func(kind uint8, g dataset.GameRecord) *journalRecord {
		return &journalRecord{Kind: kind, Line: dataset.Record{Kind: dataset.KindGame, Game: g}}
	}
	group := func(g dataset.GroupRecord) *journalRecord {
		return &journalRecord{Kind: kindGroup, Line: dataset.Record{Kind: dataset.KindGroup, Group: g}}
	}
	younger := testUser(2)
	younger.Country = "SE"
	recs := []*journalRecord{
		user(testUser(2)),
		user(&dataset.UserRecord{SteamID: 3, Friends: []dataset.FriendRecord{}, Games: []dataset.OwnershipRecord{}, Groups: []uint64{}}),
		user(&dataset.UserRecord{SteamID: 4, Country: "<&>", City: "Zürich"}),
		user(testUser(1)),
		user(younger),
		{Kind: kindPhaseDone, Phase: 2},
		game(kindGame, dataset.GameRecord{AppID: 10, Name: "Alpha", Type: "game", Genres: []string{"RPG", "Indie"}, PriceCents: 999}),
		game(kindGame, dataset.GameRecord{AppID: 11, Name: "Beta", Genres: []string{}}),
		game(kindGame, dataset.GameRecord{AppID: 12}),
		{Kind: kindPhaseDone, Phase: 3},
		game(kindAch, dataset.GameRecord{AppID: 10, Achievements: []dataset.AchievementRecord{{Name: "ACH_0", Percent: 12.5}, {Name: "ACH_1", Percent: 0.1}}}),
		game(kindAch, dataset.GameRecord{AppID: 11, Achievements: []dataset.AchievementRecord{}}),
		game(kindAch, dataset.GameRecord{AppID: 12}),
		game(kindAch, dataset.GameRecord{AppID: 99, Achievements: []dataset.AchievementRecord{{Name: "ORPHAN", Percent: 1e-7}}}),
		group(dataset.GroupRecord{GID: 7, Name: "grp", Type: "gaming", Members: []uint64{1, 2}}),
		group(dataset.GroupRecord{GID: 8}),
	}
	for _, rec := range recs {
		if err := jr.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
}

// requireState reopens the journal in dir and requires exactly want.
func requireState(t *testing.T, dir string, want *crawlState, when string) {
	t.Helper()
	jr, got, err := openJournal(dir, 512, &Metrics{})
	if err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	jr.Close()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: replayed state differs\n got %+v\nwant %+v", when, got, want)
	}
}

// Compaction round-trips the crawl state exactly, empty and nil lists
// included, and so does every crash inside it: before the sidecar
// commits the base, and after, before the sealed segments go.
func TestJournalCompactRoundTripsState(t *testing.T) {
	defer func() { journalCrashHook = nil }()
	for _, crash := range []string{"", "compact-base", "compact-sealed"} {
		t.Run("crash="+crash, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "j")
			richJournal(t, dir)
			// Two compactions: the second replaces a committed base, so a
			// crash inside it must leave the first base in force.
			for round := 1; round <= 2; round++ {
				jr, want, err := openJournal(dir, 512, &Metrics{})
				if err != nil {
					t.Fatal(err)
				}
				if round == 1 && (len(want.ach) != 4 || want.ach[11] == nil || want.ach[12] != nil) {
					t.Fatalf("test setup: achievement sets replayed as %+v", want.ach)
				}
				injected := errors.New("simulated crash")
				journalCrashHook = func(point string) error {
					if point == crash {
						return injected
					}
					return nil
				}
				err = jr.Compact(want)
				journalCrashHook = nil
				if crash == "" && err != nil || crash != "" && !errors.Is(err, injected) {
					t.Fatalf("round %d: compact: %v", round, err)
				}
				jr.Close()
				requireState(t, dir, want, "after compaction")
				// Journal more work on top of the base: a new user and a
				// younger observation of a compacted one.
				jr, _, err = openJournal(dir, 512, &Metrics{})
				if err != nil {
					t.Fatal(err)
				}
				fresh := testUser(2)
				fresh.City = "round"
				for _, u := range []*dataset.UserRecord{testUser(uint64(100 + round)), fresh} {
					if err := jr.appendUser(u); err != nil {
						t.Fatal(err)
					}
				}
				jr.Close()
			}
			_, want, err := openJournal(dir, 512, &Metrics{})
			if err != nil {
				t.Fatal(err)
			}
			if err := CompactJournal(dir); err != nil {
				t.Fatal(err)
			}
			requireState(t, dir, want, "final compaction")
		})
	}
}

// framePayload frames an arbitrary payload with a valid length and CRC.
func framePayload(p []byte) []byte {
	b := make([]byte, recHeaderSize, recHeaderSize+len(p))
	binary.BigEndian.PutUint32(b[0:4], uint32(len(p)))
	binary.BigEndian.PutUint32(b[4:8], crc32.ChecksumIEEE(p))
	return append(b, p...)
}

func fencedHeader(epoch uint64) []byte {
	var hdr [segHeaderSize]byte
	copy(hdr[0:4], segMagic)
	binary.BigEndian.PutUint32(hdr[4:8], segHeaderVersion)
	binary.BigEndian.PutUint64(hdr[8:16], epoch)
	return hdr[:]
}

// poisonID marks the records a fuzzed journal places where replay must
// never reach: past a seal, or in a segment forged below the fence.
const poisonID = 777777777777777777

// FuzzJournalReplay builds a journal of up to two segments from fuzz
// bytes and opens it as reader, owner and takeover. The mode byte picks
// the shape: bit 0 stamps SEGF epoch headers, bit 1 writes a fence (epoch
// 1, or 2 with bit 4) that seals segment 1 at its fuzzed length, bit 2
// wraps the fuzz bytes into CRC-valid records (length-prefixed payloads,
// so the payload decoder itself is fuzzed) instead of using them raw,
// and bit 3 adds segment 2. cut tears bytes off the final segment. A
// poison record sits past the seal and in any segment below the fence.
// Opening must never panic and never apply a poison record.
func FuzzJournalReplay(f *testing.F) {
	// Seeds: the raw bytes of real segments, and their payloads.
	dir := filepath.Join(f.TempDir(), "seed")
	jr, _, err := openJournal(dir, 0, &Metrics{})
	if err != nil {
		f.Fatal(err)
	}
	var payloads []byte
	for _, rec := range []*journalRecord{
		{Kind: kindUser, Line: dataset.Record{Kind: dataset.KindUser, User: *testUser(1)}},
		{Kind: kindGame, Line: dataset.Record{Kind: dataset.KindGame, Game: dataset.GameRecord{AppID: 10, Name: "Alpha", Genres: []string{"RPG"}}}},
		{Kind: kindAch, Line: dataset.Record{Kind: dataset.KindGame, Game: dataset.GameRecord{AppID: 10, Achievements: []dataset.AchievementRecord{{Name: "ACH_0", Percent: 12.5}}}}},
		{Kind: kindGroup, Line: dataset.Record{Kind: dataset.KindGroup, Group: dataset.GroupRecord{GID: 7, Name: "grp", Members: []uint64{1}}}},
		{Kind: kindPhaseDone, Phase: 2},
	} {
		if err := jr.append(rec); err != nil {
			f.Fatal(err)
		}
		b, _ := encodeRecord(rec)
		payloads = append(payloads, byte(len(b)-recHeaderSize))
		payloads = append(payloads, b[recHeaderSize:]...)
	}
	jr.Close()
	seg, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		f.Fatal(err)
	}
	for _, mode := range []byte{0, 1, 3, 8, 11, 27} {
		f.Add(mode, uint16(0), seg, seg)
		f.Add(mode, uint16(5), seg, seg[:len(seg)/2])
		f.Add(mode|4, uint16(0), payloads, payloads)
		f.Add(mode|4, uint16(3), payloads, []byte{2, kindPhaseDone, 9})
	}

	poison, err := encodeRecord(&journalRecord{Kind: kindUser, Line: dataset.Record{Kind: dataset.KindUser, User: dataset.UserRecord{SteamID: poisonID}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, mode byte, cut uint16, body1, body2 []byte) {
		digits := []byte("777777777777777777")
		if bytes.Contains(body1, digits) || bytes.Contains(body2, digits) {
			return // a fuzzed poison record would be a legitimate one
		}
		fencedSegs, hasFence, wrap, two := mode&1 != 0, mode&2 != 0, mode&4 != 0, mode&8 != 0
		segEpoch, fenceEpoch := uint64(0), uint64(0)
		if fencedSegs {
			segEpoch = 1
		}
		if hasFence {
			fenceEpoch = 1 + uint64(mode>>4&1)
		}
		build := func(body []byte) []byte {
			var out []byte
			if fencedSegs {
				out = fencedHeader(segEpoch)
			}
			if !wrap {
				return append(out, body...)
			}
			for len(body) > 0 {
				n := min(int(body[0]), len(body)-1)
				out = append(out, framePayload(body[1:1+n])...)
				body = body[1+n:]
			}
			return out
		}
		segs := [][]byte{build(body1)}
		var fence Fence
		if hasFence {
			fence = Fence{Epoch: fenceEpoch, Seals: map[int]int64{1: int64(len(segs[0]))}}
			segs[0] = append(segs[0], poison...) // a late append past the seal
		}
		if two {
			seg2 := build(body2)
			if hasFence && segEpoch < fenceEpoch {
				seg2 = append(seg2, poison...) // unsealed and below the fence: skipped whole
			}
			segs = append(segs, seg2)
		}
		last := segs[len(segs)-1]
		segs[len(segs)-1] = last[:len(last)-int(cut)%(len(last)+1)]

		files := map[string][]byte{}
		for i, seg := range segs {
			files[segName(i+1)] = seg
		}
		if hasFence {
			files[fenceName], _ = json.Marshal(fence)
		}
		tmp := t.TempDir()
		write := func(epoch uint64) string {
			dir := filepath.Join(tmp, strconv.FormatUint(epoch, 10))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			for name, b := range files {
				if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			return dir
		}
		check := func(how string, st *crawlState) {
			for _, u := range st.users {
				if u.SteamID == poisonID {
					t.Fatalf("%s: replay applied a record past a seal or below the fence", how)
				}
			}
		}
		epochs := []uint64{0, fenceEpoch + 1} // reader (or solo owner), takeover
		if fenceEpoch > 0 {
			epochs = append(epochs, fenceEpoch) // the fenced owner
		}
		for _, epoch := range epochs {
			dir := write(epoch)
			jr, st, err := openJournalAt(dir, 0, &Metrics{}, epoch)
			if err != nil {
				continue
			}
			check("open", st)
			jr.Close()
			// Whatever the open repaired, sealed or created must replay
			// the same way for the next reader and owner.
			for _, again := range slices.Compact([]uint64{0, epoch}) {
				jr, st, err := openJournalAt(dir, 0, &Metrics{}, again)
				if err != nil {
					t.Fatalf("reopen at epoch %d after a clean open at %d: %v", again, epoch, err)
				}
				check("reopen", st)
				jr.Close()
			}
		}
	})
}
