package dataset

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// nastySnapshot exercises every encoder edge the record types can carry:
// HTML-escaped characters, control characters, invalid UTF-8, the JS
// line separators, nil vs. empty slices, float formatting boundaries.
func nastySnapshot() *Snapshot {
	names := []string{
		"",
		"plain ascii",
		`<script>alert("x&y")</script>`,
		"back\\slash \"quote\"",
		"newline\ntab\tcr\rbell\x01 backspace\b formfeed\f",
		"del\x7fchar",
		"invalid \xff utf8 \x80 bytes",
		"line\u2028and\u2029separators",
		"héllo 日本語 🎮",
	}
	floats := []float64{
		0, 1, -1, 42.5, 0.1, -0.0001,
		1e-6, 9.999999e-7, 1e-7, 5e-324,
		1e21, 9.99e20, 1.5e22, -2.5e-9,
		math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	s := &Snapshot{CollectedAt: 1_400_000_000}
	for i, name := range names {
		g := GameRecord{
			AppID:       uint32(10 + i),
			Name:        name,
			Type:        "game",
			Multiplayer: i%2 == 0,
			PriceCents:  int64(i) * 99,
			Metacritic:  -1 + i,
			ReleaseYear: 2000 + i,
			Developer:   names[len(names)-1-i],
		}
		switch i % 3 {
		case 0: // nil slices stay nil -> "null"
		case 1: // empty non-nil slices -> "[]"
			g.Genres = []string{}
			g.Achievements = []AchievementRecord{}
		default:
			g.Genres = []string{"Action", name}
			for j, f := range floats {
				g.Achievements = append(g.Achievements,
					AchievementRecord{Name: fmt.Sprintf("ACH_%d_%s", j, name), Percent: f})
			}
		}
		s.Games = append(s.Games, g)
		u := UserRecord{SteamID: uint64(i + 1), Created: int64(i) * 1000, Country: "DE", City: name}
		switch i % 3 {
		case 0:
		case 1:
			u.Friends = []FriendRecord{}
			u.Games = []OwnershipRecord{}
			u.Groups = []uint64{}
		default:
			u.Friends = []FriendRecord{{SteamID: uint64(i), Since: -5}, {SteamID: math.MaxUint64, Since: 0}}
			u.Games = []OwnershipRecord{{AppID: uint32(10 + i), TotalMinutes: math.MaxInt64, TwoWeekMinutes: math.MaxInt32}}
			u.Groups = []uint64{7, math.MaxUint64}
		}
		s.Users = append(s.Users, u)
		grp := GroupRecord{GID: uint64(100 + i), Name: name, Type: "Single Game"}
		if i%2 == 0 {
			grp.Members = []uint64{1, 2, 3}
		}
		s.Groups = append(s.Groups, grp)
	}
	return s
}

// stdlibJSONL is the reference encoding: the exact code path the export
// used before the hand-rolled codec.
func stdlibJSONL(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(jsonlLine{Kind: "header", CollectedAt: s.CollectedAt}); err != nil {
		t.Fatal(err)
	}
	for i := range s.Games {
		if err := enc.Encode(jsonlLine{Kind: "game", Game: &s.Games[i]}); err != nil {
			t.Fatal(err)
		}
	}
	for i := range s.Users {
		if err := enc.Encode(jsonlLine{Kind: "user", User: &s.Users[i]}); err != nil {
			t.Fatal(err)
		}
	}
	for i := range s.Groups {
		if err := enc.Encode(jsonlLine{Kind: "group", Group: &s.Groups[i]}); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}

// The hand-rolled encoder must reproduce encoding/json byte for byte on
// every edge case the record types can express — the manifests' file
// hashes depend on it.
func TestJSONLEncoderMatchesStdlib(t *testing.T) {
	for _, s := range []*Snapshot{nastySnapshot(), {CollectedAt: 0}, persistSnapshot()} {
		want := stdlibJSONL(t, s)
		got := saveJSONL(t, s)
		if d := firstDiff(got, want); d != -1 {
			lo, hi := max(0, d-40), min(len(want), d+40)
			t.Fatalf("encoding diverges at byte %d:\n hand:   %q\n stdlib: %q",
				d, got[lo:min(len(got), hi)], want[lo:hi])
		}
	}
}

// A NaN completion rate must fail the save with the stdlib error, not be
// silently mangled.
func TestJSONLEncoderRejectsNaNLikeStdlib(t *testing.T) {
	s := &Snapshot{Games: []GameRecord{{AppID: 1,
		Achievements: []AchievementRecord{{Name: "bad", Percent: math.NaN()}}}}}
	err := s.Save(filepath.Join(t.TempDir(), "nan.jsonl"))
	if err == nil || !strings.Contains(err.Error(), "unsupported value") {
		t.Fatalf("want json unsupported-value error, got %v", err)
	}
}

// Round trip through the fast decoder (and, for escaped strings, its
// stdlib fallback): the decoded snapshot is DeepEqual to what the
// encoding/json decoder produces from the same bytes, including
// nil-vs-empty slice identity. (Comparing against the *source* would be
// wrong: invalid UTF-8 legitimately round-trips to U+FFFD, exactly as
// it always did with encoding/json.)
func TestJSONLDecoderRoundTripsNastyRecords(t *testing.T) {
	raw := saveJSONL(t, nastySnapshot())
	want := stdlibDecodeJSONL(t, raw)
	if got := loadJSONL(t, raw); !reflect.DeepEqual(got, want) {
		t.Fatal("round trip diverged from stdlib decode")
	}
}

// saveJSONL returns the bytes Save writes for s as a single .jsonl file.
func saveJSONL(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snap.jsonl")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// loadJSONL decodes raw single-file bytes through Load, with no manifest
// to verify them against.
func loadJSONL(t testing.TB, raw []byte) *Snapshot {
	t.Helper()
	path := filepath.Join(t.TempDir(), "raw.jsonl")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// stdlibDecodeJSONL replays the pre-codec decoder: one json.Unmarshal
// per line.
func stdlibDecodeJSONL(t testing.TB, b []byte) *Snapshot {
	t.Helper()
	s := &Snapshot{}
	for _, raw := range bytes.Split(b, []byte{'\n'}) {
		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		var line jsonlLine
		if err := json.Unmarshal(raw, &line); err != nil {
			t.Fatal(err)
		}
		switch line.Kind {
		case "header":
			s.CollectedAt = line.CollectedAt
		case "game":
			s.Games = append(s.Games, *line.Game)
		case "user":
			s.Users = append(s.Users, *line.User)
		case "group":
			s.Groups = append(s.Groups, *line.Group)
		}
	}
	return s
}

// The fast path must also agree with encoding/json on lines it accepts:
// decode each canonical line both ways and compare.
func TestJSONLFastPathAgreesWithStdlib(t *testing.T) {
	for lineNo, raw := range bytes.Split(saveJSONL(t, nastySnapshot()), []byte{'\n'}) {
		if len(raw) == 0 {
			continue
		}
		var d chunkDecoder
		recs := make([]decodedLine, 1)
		if !decodeLineFast(raw, &recs[0], &d) {
			// Escaped strings legitimately punt to the fallback; anything
			// else should have been accepted.
			if !bytes.Contains(raw, []byte{'\\'}) {
				t.Fatalf("line %d: fast path rejected canonical escape-free line %q", lineNo+1, raw)
			}
			continue
		}
		d.carve(recs)
		rec := recs[0]
		var line jsonlLine
		if err := json.Unmarshal(raw, &line); err != nil {
			t.Fatalf("line %d: stdlib rejected what fast path accepted: %v", lineNo+1, err)
		}
		switch rec.kind {
		case 'h':
			if rec.collectedAt != line.CollectedAt {
				t.Fatalf("line %d: header mismatch", lineNo+1)
			}
		case 'g':
			if !reflect.DeepEqual(rec.game, *line.Game) {
				t.Fatalf("line %d: game mismatch\n fast:   %+v\n stdlib: %+v", lineNo+1, rec.game, *line.Game)
			}
		case 'u':
			if !reflect.DeepEqual(rec.user, *line.User) {
				t.Fatalf("line %d: user mismatch\n fast:   %+v\n stdlib: %+v", lineNo+1, rec.user, *line.User)
			}
		case 'p':
			if !reflect.DeepEqual(rec.group, *line.Group) {
				t.Fatalf("line %d: group mismatch\n fast:   %+v\n stdlib: %+v", lineNo+1, rec.group, *line.Group)
			}
		}
	}
}

// The committed example snapshot was written by the encoding/json
// version of this exporter. Re-saving its decoded form must reproduce
// the committed file byte for byte — the strongest possible evidence
// that the codec swap changed nothing on disk.
func TestSaveReproducesCommittedExampleBytes(t *testing.T) {
	src := filepath.Join("testdata", "example.snap.jsonl")
	s, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "example.snap.jsonl")
	if err := s.Save(out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if d := firstDiff(got, want); d != -1 {
		lo, hi := max(0, d-60), min(len(want), d+60)
		t.Fatalf("re-saved example diverges from committed bytes at offset %d:\n got:  %q\n want: %q",
			d, got[lo:min(len(got), hi)], want[lo:hi])
	}
}

// --- benchmarks ---------------------------------------------------------

func benchCodecSnapshot(b *testing.B) *Snapshot {
	b.Helper()
	// Records shaped like real export data, enough of them that encoder
	// throughput dominates the loop overhead.
	s := &Snapshot{CollectedAt: 1_400_000_000}
	for i := 0; i < 64; i++ {
		g := GameRecord{AppID: uint32(10 * (i + 1)), Name: fmt.Sprintf("Game %05d", i),
			Type: "game", Genres: []string{"Action", "Indie"}, Multiplayer: i%3 == 0,
			PriceCents: 1999, Metacritic: 80, ReleaseYear: 2012, Developer: "Studio 42"}
		for j := 0; j < 12; j++ {
			g.Achievements = append(g.Achievements,
				AchievementRecord{Name: fmt.Sprintf("ACH_%d_%03d", g.AppID, j), Percent: 42.5 - float64(j)})
		}
		s.Games = append(s.Games, g)
	}
	for i := 0; i < 2000; i++ {
		u := UserRecord{SteamID: uint64(76561197960265728 + i), Created: 1_200_000_000, Country: "US", City: "Springfield"}
		for j := 0; j < 8; j++ {
			u.Friends = append(u.Friends, FriendRecord{SteamID: uint64(76561197960265728 + (i+j+1)%2000), Since: 1_300_000_000})
		}
		for j := 0; j < 16; j++ {
			u.Games = append(u.Games, OwnershipRecord{AppID: uint32(10 * (j + 1)), TotalMinutes: int64(j) * 600, TwoWeekMinutes: int32(j)})
		}
		u.Groups = []uint64{103582791429521408, 103582791429521409}
		s.Users = append(s.Users, u)
	}
	for i := 0; i < 40; i++ {
		grp := GroupRecord{GID: uint64(103582791429521408 + i), Name: fmt.Sprintf("group %d", i), Type: "Open"}
		for j := 0; j < 50; j++ {
			grp.Members = append(grp.Members, uint64(76561197960265728+(i*37+j)%2000))
		}
		s.Groups = append(s.Groups, grp)
	}
	return s
}

// encodeJSONL renders s in memory with the per-record codec the Writer
// uses, reusing buf.
func encodeJSONL(buf []byte, s *Snapshot) ([]byte, error) {
	b := appendHeaderLine(buf[:0], s.CollectedAt)
	var err error
	for i := 0; i < len(s.Games) && err == nil; i++ {
		b, err = appendGameLine(b, &s.Games[i])
	}
	for i := 0; i < len(s.Users) && err == nil; i++ {
		b, err = appendUserLine(b, &s.Users[i])
	}
	for i := 0; i < len(s.Groups) && err == nil; i++ {
		b, err = appendGroupLine(b, &s.Groups[i])
	}
	return b, err
}

func BenchmarkJSONLEncodeHand(b *testing.B) {
	s := benchCodecSnapshot(b)
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = encodeJSONL(buf, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJSONLEncodeStdlib(b *testing.B) {
	s := benchCodecSnapshot(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = stdlibJSONL(b, s)
	}
}

// BenchmarkJSONLDecodeHand decodes through Load from a manifest-less
// file, which the page cache serves after the first iteration.
func BenchmarkJSONLDecodeHand(b *testing.B) {
	raw, err := encodeJSONL(nil, benchCodecSnapshot(b))
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "codec.jsonl")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Load(path); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJSONLDecodeStdlib(b *testing.B) {
	raw, err := encodeJSONL(nil, benchCodecSnapshot(b))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got := &Snapshot{}
		br := bufio.NewReader(bytes.NewReader(raw))
		for lineNo := 1; ; lineNo++ {
			raw, err := br.ReadBytes('\n')
			if len(raw) == 0 {
				break
			}
			var line jsonlLine
			if uerr := json.Unmarshal(bytes.TrimSpace(raw), &line); uerr != nil {
				b.Fatal(uerr)
			}
			switch line.Kind {
			case "header":
				got.CollectedAt = line.CollectedAt
			case "game":
				got.Games = append(got.Games, *line.Game)
			case "user":
				got.Users = append(got.Users, *line.User)
			case "group":
				got.Groups = append(got.Groups, *line.Group)
			}
			if err == io.EOF {
				break
			}
		}
	}
}
