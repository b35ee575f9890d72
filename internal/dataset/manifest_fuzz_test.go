package dataset

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzManifest fuzzes the sidecar manifest beside a small, intact
// snapshot saved as a .jsonl.gz and as a .d directory. Whatever the
// sidecar holds, ReadManifest, Load and FsckFile must not panic; Load
// may succeed only by returning the saved records; and a clean fsck
// report means Load succeeds. The seeds are the two real manifests and
// edits of them.
func FuzzManifest(f *testing.F) {
	s := fsckFixture()
	dir := f.TempDir()
	paths := []string{filepath.Join(dir, "snap.jsonl.gz"), filepath.Join(dir, "snap.d")}
	want := s.ContentSignature()
	for _, path := range paths {
		if err := s.Save(path, WithShardRecords(1)); err != nil {
			f.Fatal(err)
		}
		real, err := os.ReadFile(ManifestPath(path))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(real)
		f.Add(real[:len(real)/2])
		for _, edit := range [][2]string{
			{`"file_bytes": `, `"file_bytes": 1`},
			{`"file_sha256": "`, `"file_sha256": "0`},
			{`"format_version": `, `"format_version": 9`},
			{`"records": `, `"records": -`},
			{`"records": `, `"records": 99999999999999999`},
			{`"crc32c": `, `"crc32c": 1`},
			{`"shards": [`, `"shards": [], "x": [`},
			{`"file": "`, `"file": "../`},
		} {
			if e := bytes.ReplaceAll(real, []byte(edit[0]), []byte(edit[1])); !bytes.Equal(e, real) {
				f.Add(e)
			}
		}
	}
	f.Add([]byte("null"))
	f.Add([]byte("{}"))
	f.Fuzz(func(t *testing.T, sidecar []byte) {
		for _, path := range paths {
			if err := os.WriteFile(ManifestPath(path), sidecar, 0o644); err != nil {
				t.Fatal(err)
			}
			_, _ = ReadManifest(path)
			got, lerr := Load(path)
			if lerr == nil && got.ContentSignature() != want {
				t.Fatalf("%s: Load succeeded with other records", path)
			}
			rep, err := FsckFile(path, nil)
			if err != nil {
				t.Fatalf("%s: FsckFile: %v", path, err)
			}
			if rep.Clean() && lerr != nil {
				t.Fatalf("%s: fsck clean but Load failed: %v", path, lerr)
			}
		}
	})
}
