package dataset

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"steamstudy/internal/simworld"
)

// editManifest rewrites path's sidecar manifest through edit.
func editManifest(t testing.TB, path string, edit func(*Manifest)) *Manifest {
	t.Helper()
	man, err := ReadManifest(path)
	if err != nil || man == nil {
		t.Fatalf("manifest of %s: %v", path, err)
	}
	edit(man)
	b, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ManifestPath(path), b, 0o644); err != nil {
		t.Fatal(err)
	}
	return man
}

// flipHex changes the first hex digit of a digest.
func flipHex(s string) string {
	if s[0] == '0' {
		return "1" + s[1:]
	}
	return "0" + s[1:]
}

func sha256File(t testing.TB, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// FsckFile on a single file whose bytes are intact but whose manifest
// records another size or SHA-256 reports exactly one file-hash
// violation, worded as a raw-byte check of the file words it, and still
// decodes and scans every record.
func TestFsckFileManifestBytesEdited(t *testing.T) {
	s := testSnapshot(t)
	want := oracleFsck(s)
	dir := t.TempDir()
	for _, name := range []string{"snap.jsonl", "snap.jsonl.gz"} {
		for _, field := range []string{"size", "sha"} {
			path := filepath.Join(dir, field+"-"+name)
			if err := s.Save(path); err != nil {
				t.Fatal(err)
			}
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			sha := sha256File(t, path)
			man := editManifest(t, path, func(m *Manifest) {
				if field == "size" {
					m.FileBytes++
				} else {
					m.FileSHA256 = flipHex(m.FileSHA256)
				}
			})
			wantSample := fmt.Sprintf("dataset: %s is %d bytes, manifest records %d (truncated or partially overwritten)",
				path, info.Size(), man.FileBytes)
			if field == "sha" {
				wantSample = fmt.Sprintf("dataset: %s file hash mismatch (got %s, manifest %s): on-disk corruption",
					path, sha, man.FileSHA256)
			}
			rep, err := FsckFile(path, nil)
			if err != nil {
				t.Fatal(err)
			}
			label := field + " " + name
			if !rep.ManifestVerified || rep.Violations() != 1 || rep.Counts[ViolationFileHash] != 1 {
				t.Fatalf("%s: want exactly one file-hash violation, got\n%s", label, rep)
			}
			if got := rep.Samples[ViolationFileHash][0]; got != wantSample {
				t.Fatalf("%s: sample\n%q\nwant\n%q", label, got, wantSample)
			}
			if rep.Users != want.Users || rep.Games != want.Games || rep.Groups != want.Groups ||
				rep.RecordsVerified != want.RecordsVerified {
				t.Fatalf("%s: shape %d/%d/%d (%d verified), want %d/%d/%d (%d)", label,
					rep.Users, rep.Games, rep.Groups, rep.RecordsVerified,
					want.Users, want.Games, want.Groups, want.RecordsVerified)
			}
			// VerifyFile words the same check the same way.
			if err := man.VerifyFile(path); err == nil || err.Error() != wantSample {
				t.Fatalf("%s: VerifyFile: %v, want %q", label, err, wantSample)
			}
		}
	}
}

// A directory whose concatenated segments disagree with the manifest's
// FileSHA256 (every segment intact) reads "file hash mismatch", as Load
// words it.
func TestFsckShardedFileHashSample(t *testing.T) {
	s := testSnapshot(t)
	_, sharded := saveBoth(t, s)
	man := editManifest(t, sharded, func(m *Manifest) { m.FileSHA256 = flipHex(m.FileSHA256) })
	rep, err := FsckFile(sharded, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations() != 1 || rep.Counts[ViolationFileHash] != 1 {
		t.Fatalf("want exactly one file-hash violation, got\n%s", rep)
	}
	sample := rep.Samples[ViolationFileHash][0]
	if !strings.HasPrefix(sample, "dataset: "+sharded+" file hash mismatch (got ") ||
		!strings.Contains(sample, "manifest "+man.FileSHA256+")") {
		t.Fatalf("sample %q", sample)
	}
	_, lerr := Load(sharded)
	if lerr == nil || lerr.Error() != sample {
		t.Fatalf("Load: %v, want the fsck sample %q", lerr, sample)
	}
}

// A .jsonl.gz whose gzip header is damaged still has its raw bytes
// checked: fsck reports the file-hash violation beside the decode error,
// and Load attaches it to the decode error.
func TestFsckFileDamagedGzipHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.jsonl.gz")
	if err := fsckFixture().Save(path); err != nil {
		t.Fatal(err)
	}
	b := readFileT(t, path)
	b[0] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := FsckFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counts[ViolationFileHash] != 1 || rep.Counts[ViolationDecode] != 1 || rep.Violations() != 2 {
		t.Fatalf("want one file-hash and one decode violation, got\n%s", rep)
	}
	if !strings.Contains(rep.Samples[ViolationDecode][0], "gzip header") {
		t.Fatalf("decode sample %q", rep.Samples[ViolationDecode][0])
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "gzip header") ||
		!strings.Contains(err.Error(), "raw-byte check also failed") {
		t.Fatalf("Load: %v", err)
	}
}

// LoadWithManifest returns the manifest the decoded bytes were verified
// against, even when another snapshot is published at the path while
// the load runs: a manifest read after the load would name the new
// file's bytes beside the old file's records.
func TestLoadWithManifestNamesDecodedBytes(t *testing.T) {
	old := testSnapshot(t)
	cfg := simworld.DefaultConfig(1500)
	cfg.CatalogSize = 200
	next := FromUniverse(simworld.MustGenerate(cfg, 4))
	dir := t.TempDir()
	for _, name := range []string{"snap.jsonl", "snap.jsonl.gz", "snap.d"} {
		path := filepath.Join(dir, name)
		if err := old.Save(path, WithShardRecords(400)); err != nil {
			t.Fatal(err)
		}
		oldMan, err := ReadManifest(path)
		if err != nil {
			t.Fatal(err)
		}
		oldSHA := oldMan.FileSHA256
		if name != "snap.d" {
			oldSHA = sha256File(t, path)
		}
		var once sync.Once
		republish := WithProgress(func(string, int) {
			once.Do(func() {
				if err := next.Save(path, WithShardRecords(400)); err != nil {
					t.Error(err)
				}
			})
		})
		snap, man, err := LoadWithManifest(path, republish)
		newMan, rerr := ReadManifest(path)
		if rerr != nil || newMan.FileSHA256 == oldMan.FileSHA256 {
			t.Fatalf("%s: no new snapshot was published during the load (%v)", name, rerr)
		}
		if name == "snap.d" {
			// A directory is opened segment by segment, so the old
			// manifest may meet new segments; then the load fails.
			if err == nil && (man.FileSHA256 != oldSHA || snap.ContentSignature() != old.ContentSignature()) {
				t.Fatalf("%s: a load across a republish paired manifest SHA %s with other records", name, man.FileSHA256)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// The path now holds the new file; the manifest returned names
		// the old file's bytes, whose records were decoded.
		if man.FileSHA256 != oldSHA || snap.ContentSignature() != old.ContentSignature() {
			t.Fatalf("%s: returned manifest SHA %s for the old file's records (old bytes %s, new %s)",
				name, man.FileSHA256, oldSHA, newMan.FileSHA256)
		}
	}
}
