package dataset

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// small snapshot for persistence tests — big enough that sections occupy
// distinct file regions, small enough to corrupt surgically.
func persistSnapshot() *Snapshot {
	s := &Snapshot{CollectedAt: 1_400_000_000}
	for id := uint64(1); id <= 20; id++ {
		u := UserRecord{SteamID: id, Created: int64(id) * 1000, Country: "DE"}
		if id > 1 {
			u.Friends = append(u.Friends, FriendRecord{SteamID: id - 1, Since: 50})
		}
		if id < 20 {
			u.Friends = append(u.Friends, FriendRecord{SteamID: id + 1, Since: 50})
		}
		u.Games = append(u.Games, OwnershipRecord{AppID: 10, TotalMinutes: 600, TwoWeekMinutes: 30})
		s.Users = append(s.Users, u)
	}
	s.Games = []GameRecord{
		{AppID: 10, Name: "Alpha", Type: "game", Genres: []string{"Action"}, PriceCents: 999,
			Achievements: []AchievementRecord{{Name: "ACH_0", Percent: 42.5}}},
		{AppID: 20, Name: "Beta", Type: "game"},
	}
	s.Groups = []GroupRecord{{GID: 7, Name: "grp", Type: "Single Game"}}
	return s
}

func TestSaveRejectsUnknownExtension(t *testing.T) {
	s := persistSnapshot()
	// The retired gob container is as unknown as any other extension.
	for _, name := range []string{"snap.json", "snap.gob", "snap.gob.gz", "snap.gob.bak", "snapjson", "snap.jsonl.zip", "snap"} {
		err := s.Save(filepath.Join(t.TempDir(), name))
		if err == nil || !strings.Contains(err.Error(), "unknown snapshot extension (want .jsonl, .jsonl.gz or a .d directory)") {
			t.Fatalf("%s: want unknown-extension error naming the accepted forms, got %v", name, err)
		}
	}
	// The old substring sniff accepted things like "x.jsonl.bak"; explicit
	// suffix matching must not.
	if err := s.Save(filepath.Join(t.TempDir(), "x.jsonl.bak")); err == nil {
		t.Fatal("jsonl-infix path with unknown suffix accepted")
	}
}

func TestLoadRejectsUnknownExtension(t *testing.T) {
	for _, name := range []string{"snap.csv", "snap.gob", "snap.gob.gz"} {
		if _, err := Load(filepath.Join(t.TempDir(), name)); err == nil ||
			!strings.Contains(err.Error(), "unknown snapshot extension") {
			t.Fatalf("%s: want unknown-extension error, got %v", name, err)
		}
		if err := CheckSnapshotPath(name); err == nil || !strings.Contains(err.Error(), ".jsonl.gz") {
			t.Fatalf("%s: CheckSnapshotPath should reject it and name the accepted forms, got %v", name, err)
		}
	}
}

func TestSaveWritesManifestSidecar(t *testing.T) {
	s := persistSnapshot()
	for _, name := range []string{"snap.jsonl", "snap.jsonl.gz"} {
		path := filepath.Join(t.TempDir(), name)
		if err := s.Save(path); err != nil {
			t.Fatal(err)
		}
		man, err := ReadManifest(path)
		if err != nil {
			t.Fatal(err)
		}
		if man == nil {
			t.Fatalf("%s: no manifest written", name)
		}
		if man.FormatVersion != SnapshotFormatVersion {
			t.Fatalf("%s: manifest version %d", name, man.FormatVersion)
		}
		if man.Sections["users"].Records != len(s.Users) ||
			man.Sections["games"].Records != len(s.Games) ||
			man.Sections["groups"].Records != len(s.Groups) {
			t.Fatalf("%s: manifest counts %+v", name, man.Sections)
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if man.FileBytes != info.Size() {
			t.Fatalf("%s: manifest records %d bytes, file is %d", name, man.FileBytes, info.Size())
		}
		if _, err := Load(path); err != nil {
			t.Fatalf("%s: verified load failed: %v", name, err)
		}
	}
}

// The section checksums are canonical: the same snapshot saved in every
// layout — plain, compressed, sharded — carries identical per-section
// CRCs.
func TestManifestSectionChecksumsFormatIndependent(t *testing.T) {
	s := persistSnapshot()
	dir := t.TempDir()
	var ref map[string]SectionSum
	for _, name := range []string{"a.jsonl", "b.jsonl.gz", "c.d"} {
		path := filepath.Join(dir, name)
		if err := s.Save(path, WithShardRecords(6)); err != nil {
			t.Fatal(err)
		}
		man, err := ReadManifest(path)
		if err != nil || man == nil {
			t.Fatalf("manifest for %s: %v", name, err)
		}
		if ref == nil {
			ref = man.Sections
		} else if !reflect.DeepEqual(ref, man.Sections) {
			t.Fatalf("%s: section sums diverge: %+v vs %+v", name, man.Sections, ref)
		}
	}
}

// Atomicity: aborting Save at any crashpoint leaves the previous
// snapshot+manifest loadable and leaves no state that fails verification.
func TestSaveCrashpointsNeverExposeTornState(t *testing.T) {
	defer func() { saveCrashHook = nil }()
	injected := errors.New("simulated crash")
	s1 := persistSnapshot()
	s2 := persistSnapshot()
	s2.CollectedAt++
	// Visibly different second version (still referentially sound).
	s2.Users = append(s2.Users, UserRecord{SteamID: 99, Created: 99_000, Country: "SE"})

	for _, stage := range []string{"temp-written", "manifest-retired", "data-renamed"} {
		dir := t.TempDir()
		path := filepath.Join(dir, "snap.jsonl.gz")
		saveCrashHook = nil
		if err := s1.Save(path); err != nil {
			t.Fatal(err)
		}
		saveCrashHook = func(at string) error {
			if at == stage {
				return injected
			}
			return nil
		}
		err := s2.Save(path)
		if !errors.Is(err, injected) {
			t.Fatalf("stage %s: want injected crash, got %v", stage, err)
		}
		saveCrashHook = nil

		got, err := Load(path)
		if err != nil {
			t.Fatalf("stage %s: load after crash failed: %v", stage, err)
		}
		// Before the data rename the old snapshot survives; after it the
		// new one is fully published (manifest pending, so unverified) —
		// either way a complete, consistent snapshot.
		wantUsers := len(s1.Users)
		if stage == "data-renamed" {
			wantUsers = len(s2.Users)
		}
		if len(got.Users) != wantUsers {
			t.Fatalf("stage %s: loaded %d users, want %d", stage, len(got.Users), wantUsers)
		}
		rep, err := FsckFile(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Clean() {
			t.Fatalf("stage %s: post-crash fsck dirty:\n%s", stage, rep)
		}
	}
}

// The abort path removes its temp files and reports the error exactly
// once (the old code left a truncated destination behind on encode
// failure and raced two Closes).
func TestSaveAbortLeavesNoTempLitter(t *testing.T) {
	defer func() { saveCrashHook = nil }()
	injected := errors.New("simulated crash")
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.jsonl.gz")
	saveCrashHook = func(string) error { return injected }
	if err := persistSnapshot().Save(path); !errors.Is(err, injected) {
		t.Fatalf("want injected error, got %v", err)
	}
	saveCrashHook = nil
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("aborted save left temp file %s", e.Name())
		}
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("aborted save published a destination file: %v", err)
	}
}

func TestLoadDetectsTruncatedGzip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.jsonl.gz")
	s := persistSnapshot()
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-20); err != nil {
		t.Fatal(err)
	}
	// With the manifest: the raw size check localizes it as truncation.
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("want truncation error, got %v", err)
	}
	// Without the manifest: the decode still fails with a wrapped,
	// descriptive error — never a panic.
	if err := os.Remove(ManifestPath(path)); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "decoding") {
		t.Fatalf("want wrapped decode error, got %v", err)
	}
}

func TestLoadDetectsBitFlippedGzip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.jsonl.gz")
	s := persistSnapshot()
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x41
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("bit-flipped snapshot loaded without error")
	}
	// fsck names what failed instead of stopping at the first error.
	rep, err := FsckFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("fsck of bit-flipped snapshot reported clean")
	}
	if rep.Counts[ViolationFileHash] == 0 {
		t.Fatalf("fsck missed the raw-byte damage:\n%s", rep)
	}
}

// A value-level corruption that still decodes (the nastiest case: no
// decoder error at all) is caught by the section checksum and the error
// names the damaged section.
func TestLoadLocalizesDamagedSection(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.jsonl")
	s := persistSnapshot()
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a digit inside the Alpha game's price: still valid JSON, still
	// decodes, but the games section no longer matches its checksum.
	mutated := strings.Replace(string(b), `"PriceCents":999`, `"PriceCents":998`, 1)
	if mutated == string(b) {
		t.Fatal("test setup: price field not found")
	}
	if err := os.WriteFile(path, []byte(mutated), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Load(path)
	if err == nil || !strings.Contains(err.Error(), "games section checksum mismatch") {
		t.Fatalf("want games-section checksum error, got %v", err)
	}
	rep, err := FsckFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counts[ViolationSectionChecksum] == 0 {
		t.Fatalf("fsck missed the section damage:\n%s", rep)
	}
	found := false
	for _, sample := range rep.Samples[ViolationSectionChecksum] {
		if strings.Contains(sample, "games") {
			found = true
		}
	}
	if !found {
		t.Fatalf("fsck did not name the games section:\n%s", rep)
	}
}

func TestLoadReportsJSONLLineNumbers(t *testing.T) {
	dir := t.TempDir()

	// Unknown record kind mid-stream.
	path := filepath.Join(dir, "kind.jsonl")
	content := `{"kind":"header","collected_at":5}
{"kind":"game","game":{"AppID":10,"Name":"Alpha"}}
{"kind":"mystery"}
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Load(path)
	if err == nil || !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), "mystery") {
		t.Fatalf("want line-3 unknown-kind error, got %v", err)
	}

	// Malformed JSON.
	path = filepath.Join(dir, "syntax.jsonl")
	content = `{"kind":"header","collected_at":5}
{"kind":"game","game":{"AppID":10,`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want line-2 syntax error, got %v", err)
	}

	// Payload missing for its kind.
	path = filepath.Join(dir, "payload.jsonl")
	content = `{"kind":"header","collected_at":5}
{"kind":"user"}
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want line-2 missing-payload error, got %v", err)
	}

	// Deep in a real snapshot: the damaged line opens, ends or sits inside
	// a decode chunk, or lands two thirds of the way in.
	raw := saveJSONL(t, testSnapshot(t))
	lines := bytes.Split(raw, []byte{'\n'})
	for _, badAt := range badLineIndexes(len(lines)) {
		path := filepath.Join(dir, fmt.Sprintf("deep-%d.jsonl", badAt))
		if err := os.WriteFile(path, withLine(lines, badAt, `{"kind":"mystery"}`), 0o644); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("line %d: unknown record kind \"mystery\"", badAt+1)
		if _, err := Load(path); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("bad line %d: want %q, got %v", badAt+1, want, err)
		}
	}
}

// badLineIndexes returns 0-based line indexes at and around decode chunk
// boundaries, plus one two thirds of the way into an n-line file.
func badLineIndexes(n int) []int {
	return []int{1, jsonlChunk - 1, jsonlChunk, jsonlChunk + 1, 3*jsonlChunk + 17, n * 2 / 3}
}

// withLine returns the lines joined back into a file with line i replaced.
func withLine(lines [][]byte, i int, line string) []byte {
	out := slices.Clone(lines)
	out[i] = []byte(line)
	return bytes.Join(out, []byte{'\n'})
}

// FsckFile on a single file with a decode error reports the decode
// violation and the shape of every record before the damaged line — the
// tolerant Reader keeps the readable prefix — and runs no referential
// checks on a partial snapshot.
func TestFsckFilePartialShape(t *testing.T) {
	s := testSnapshot(t)
	raw := saveJSONL(t, s)
	lines := bytes.Split(raw, []byte{'\n'})
	dir := t.TempDir()
	for _, badAt := range badLineIndexes(len(lines)) {
		path := filepath.Join(dir, fmt.Sprintf("bad-%d.jsonl", badAt))
		if err := os.WriteFile(path, withLine(lines, badAt, `{"kind":"mystery"}`), 0o644); err != nil {
			t.Fatal(err)
		}
		// Line 0 is the header; games, users and groups follow in order.
		before := badAt - 1
		games := min(before, len(s.Games))
		users := min(before-games, len(s.Users))
		groups := before - games - users
		rep, err := FsckFile(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Games != games || rep.Users != users || rep.Groups != groups {
			t.Fatalf("bad line %d: shape %d/%d/%d games/users/groups, want %d/%d/%d",
				badAt+1, rep.Games, rep.Users, rep.Groups, games, users, groups)
		}
		want := fmt.Sprintf("line %d: unknown record kind", badAt+1)
		if rep.Counts[ViolationDecode] != 1 || !strings.Contains(rep.Samples[ViolationDecode][0], want) {
			t.Fatalf("bad line %d: want one decode violation naming it, got\n%s", badAt+1, rep)
		}
		if rep.RecordsVerified != 0 {
			t.Fatalf("bad line %d: referential checks ran on a partial snapshot", badAt+1)
		}
	}

	// A truncated .jsonl.gz fails with a read error mid-line; the shape is
	// every complete line the gzip stream yielded before it.
	gzPath := filepath.Join(dir, "cut.jsonl.gz")
	if err := s.Save(gzPath); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(gzPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(gzPath, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(b[:len(b)/2]))
	if err != nil {
		t.Fatal(err)
	}
	prefix, _ := io.ReadAll(zr) // the error is the truncation itself
	complete := bytes.Count(prefix, []byte{'\n'}) - 1
	rep, err := FsckFile(gzPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Games + rep.Users + rep.Groups; got != complete || complete < jsonlChunk {
		t.Fatalf("truncated gzip: %d records reported, want the %d complete lines before the cut", got, complete)
	}
	if rep.Counts[ViolationDecode] != 1 || !strings.Contains(rep.Samples[ViolationDecode][0], "unexpected EOF") {
		t.Fatalf("truncated gzip: want one decode violation for the cut, got\n%s", rep)
	}
}

func TestLoadCorruptManifestIsError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.jsonl")
	if err := persistSnapshot().Save(path); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ManifestPath(path), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "manifest") {
		t.Fatalf("want manifest error, got %v", err)
	}
}

func TestLoadRefusesNewerFormatVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.jsonl")
	if err := persistSnapshot().Save(path); err != nil {
		t.Fatal(err)
	}
	man, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	man.FormatVersion = SnapshotFormatVersion + 1
	tmp, err := writeManifestTemp(filepath.Dir(path), man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, ManifestPath(path)); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "format version") {
		t.Fatalf("want format-version error, got %v", err)
	}
}

func TestLoadWithoutManifestStillWorks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.jsonl.gz")
	s := persistSnapshot()
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(ManifestPath(path)); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("manifest-less load failed: %v", err)
	}
	if !reflect.DeepEqual(got.Users, s.Users) {
		t.Fatal("round trip without manifest lost data")
	}
}

// The deflate level is a compression choice only: a ".jsonl.gz" save
// inflates to exactly the ".jsonl" save's bytes, the two manifests agree
// on every section sum, and the gz manifest hashes the on-disk bytes.
func TestGzipSaveInflatesToJSONLSave(t *testing.T) {
	s := everyClassFixture()
	dir := t.TempDir()
	plain, gz := filepath.Join(dir, "snap.jsonl"), filepath.Join(dir, "snap.jsonl.gz")
	for _, path := range []string{plain, gz} {
		if err := s.Save(path); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(gz)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	inflated, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(inflated, readFileT(t, plain)) {
		t.Fatal(".jsonl.gz inflates to different bytes than the .jsonl save")
	}
	mPlain, err := ReadManifest(plain)
	if err != nil {
		t.Fatal(err)
	}
	mGz, err := ReadManifest(gz)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mPlain.Sections, mGz.Sections) {
		t.Fatalf("section sums diverge: %+v vs %+v", mGz.Sections, mPlain.Sections)
	}
	sum := sha256.Sum256(raw)
	if mGz.FileBytes != int64(len(raw)) || mGz.FileSHA256 != hex.EncodeToString(sum[:]) {
		t.Fatalf("gz manifest covers %d bytes / %s, file is %d bytes / %x",
			mGz.FileBytes, mGz.FileSHA256, len(raw), sum)
	}
}

// Snapshots compressed at any deflate level load: the committed example,
// gzipped at levels 1, 6 (the old default) and 9 with no manifest, loads
// to the same content as the plain file.
func TestGzipAnyLevelLoads(t *testing.T) {
	src := filepath.Join("testdata", "example.snap.jsonl")
	want, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	raw := readFileT(t, src)
	for _, level := range []int{1, 6, 9} {
		var buf bytes.Buffer
		zw, err := gzip.NewWriterLevel(&buf, level)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := zw.Write(raw); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "example.snap.jsonl.gz")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := Load(path)
		if err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
		if got.ContentSignature() != want.ContentSignature() {
			t.Fatalf("level %d: content signature differs from the plain file", level)
		}
	}
}
