package dataset

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"steamstudy/internal/simworld"
)

// readerFixture is a generated snapshot plus one group whose line is
// several ring blocks long, so the byte stage fills the ring and waits,
// and a line spans blocks.
func readerFixture() *Snapshot {
	s := FromUniverse(simworld.MustGenerate(simworld.DefaultConfig(pinUsers), 3))
	big := GroupRecord{GID: 1 << 62, Name: "big", Type: "Open"}
	for i := uint64(0); i < 300_000; i++ {
		big.Members = append(big.Members, 76561197960265728+i)
	}
	s.Groups = append(s.Groups, big)
	return s
}

// readerCase damages a saved copy of the fixture (or not) and says how
// far to read before Close: n records, or every record when n < 0, in
// which case wantErr says whether the stream must end in an error.
// prefix asks for the records before that error to be every complete
// line of the inflated stream.
type readerCase struct {
	name    string
	path    string
	damage  func(t *testing.T, path string)
	n       int
	wantErr bool
	prefix  bool
}

// TestStreamReaderCloseJoinsStages closes Readers mid-stream, at the
// end and past each kind of error, and requires that no goroutine of
// theirs is left.
func TestStreamReaderCloseJoinsStages(t *testing.T) {
	s := readerFixture()
	dir := t.TempDir()
	save := func(name string, opts ...Option) string {
		path := filepath.Join(dir, name)
		if err := s.Save(path, opts...); err != nil {
			t.Fatal(err)
		}
		return path
	}
	gz := save("snap.jsonl.gz")
	plain := save("snap.jsonl")
	sharded := save("snap.d", WithShardRecords(500))

	copyOf := func(t *testing.T, src string) string {
		t.Helper()
		dst := filepath.Join(t.TempDir(), filepath.Base(src))
		files := []string{""}
		if strings.HasSuffix(src, ".d") {
			if err := os.Mkdir(dst, 0o755); err != nil {
				t.Fatal(err)
			}
			entries, err := os.ReadDir(src)
			if err != nil {
				t.Fatal(err)
			}
			files = files[:0]
			for _, e := range entries {
				files = append(files, e.Name())
			}
		}
		for _, f := range files {
			if err := os.WriteFile(filepath.Join(dst, f), readFileT(t, filepath.Join(src, f)), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(ManifestPath(dst), readFileT(t, ManifestPath(src)), 0o644); err != nil {
			t.Fatal(err)
		}
		return dst
	}
	truncate := func(t *testing.T, path string) {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, info.Size()/2); err != nil {
			t.Fatal(err)
		}
	}
	// breakLine turns the 1,000th line into one that does not decode.
	breakLine := func(t *testing.T, path string) {
		lines := bytes.SplitAfter(readFileT(t, path), []byte("\n"))
		lines[999] = []byte("{\"kind\":\"user\",\"user\":{\n")
		if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// flipSegment changes one digit of a users segment: every line still
	// decodes, but the segment no longer matches its CRC-32C.
	flipSegment := func(t *testing.T, path string) {
		seg := filepath.Join(path, shardFileName(sectionUsers, 1))
		b := readFileT(t, seg)
		i := bytes.Index(b, []byte(`"SteamID":7656`))
		if i < 0 {
			t.Fatal("test setup: no SteamID in the segment")
		}
		b[i+len(`"SteamID":`)] = '8'
		if err := os.WriteFile(seg, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	cases := []readerCase{
		{name: "gz opened", path: gz, n: 0},
		{name: "gz mid-stream", path: gz, n: 1000},
		{name: "gz end", path: gz, n: -1},
		{name: "gz truncated", path: gz, damage: truncate, n: -1, wantErr: true, prefix: true},
		{name: "plain mid-stream", path: plain, n: 2000},
		{name: "plain end", path: plain, n: -1},
		{name: "plain decode error", path: plain, damage: breakLine, n: -1, wantErr: true},
		{name: "sharded opened", path: sharded, n: 0},
		{name: "sharded mid-stream", path: sharded, n: 1200},
		{name: "sharded end", path: sharded, n: -1},
		{name: "sharded segment CRC", path: sharded, damage: flipSegment, n: -1, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := tc.path
			if tc.damage != nil {
				path = copyOf(t, path)
				tc.damage(t, path)
			}
			base := runtime.NumGoroutine()
			r, err := OpenReader(path)
			if err != nil {
				t.Fatal(err)
			}
			var rec Record
			read := 0
			for tc.n < 0 || read < tc.n {
				ok, err := r.Next(&rec)
				if err != nil {
					if !tc.wantErr {
						t.Fatalf("after %d records: %v", read, err)
					}
					tc.wantErr = false
					break
				}
				if !ok {
					break
				}
				read++
			}
			if tc.wantErr {
				t.Fatalf("read %d records without the error", read)
			}
			if tc.prefix {
				f, err := os.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				zr, err := gzip.NewReader(f)
				if err != nil {
					t.Fatal(err)
				}
				data, _ := io.ReadAll(zr)
				if want := bytes.Count(data, []byte("\n")) - 1; read != want { // less the header
					t.Fatalf("read %d records before the cut, want %d", read, want)
				}
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			waitGoroutines(t, base, tc.name)
			if err := r.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
			if ok, _ := r.Next(&rec); ok {
				t.Fatal("Next yielded a record after Close")
			}
		})
	}
}

// TestStreamReaderSumsAfterEnd reads FileSHA256 and CollectedAt once
// Next has returned false, which is when the stages have stopped writing
// them (-race checks that). An unfiltered read hashes the raw bytes of
// either layout to the manifest's value, at GOMAXPROCS 1 as at 2; a
// single file cut short is still hashed to its end, so Load can attach
// the raw-byte failure to the decode error.
func TestStreamReaderSumsAfterEnd(t *testing.T) {
	s := readerFixture()
	dir := t.TempDir()
	names := []string{"snap.jsonl", "snap.jsonl.gz", "snap.d"}
	for _, name := range names {
		if err := s.Save(filepath.Join(dir, name), WithShardRecords(700)); err != nil {
			t.Fatal(err)
		}
	}
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		for _, name := range names {
			path := filepath.Join(dir, name)
			man, err := ReadManifest(path)
			if err != nil {
				t.Fatal(err)
			}
			r, err := OpenReader(path)
			if err != nil {
				t.Fatal(err)
			}
			got, err := readAll(r, [3]int{})
			if err != nil {
				t.Fatal(err)
			}
			if sha := r.FileSHA256(); sha != man.FileSHA256 {
				t.Errorf("GOMAXPROCS=%d %s: FileSHA256 %q, manifest %q", procs, name, sha, man.FileSHA256)
			}
			if r.CollectedAt() != s.CollectedAt || got.ContentSignature() != s.ContentSignature() {
				t.Errorf("GOMAXPROCS=%d %s: read back a different snapshot", procs, name)
			}
			r.Close()

			// A filtered read does not hash.
			r, err = OpenSection(path, SectionGroups)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := readAll(r, [3]int{}); err != nil {
				t.Fatal(err)
			}
			if sha := r.FileSHA256(); sha != "" {
				t.Errorf("GOMAXPROCS=%d %s: a section read hashed the file: %q", procs, name, sha)
			}
			r.Close()
		}
		runtime.GOMAXPROCS(prev)
	}

	path := filepath.Join(dir, "snap.jsonl.gz")
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	b := readFileT(t, path)
	b[len(b)/2] ^= 0x41
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := readAll(r, [3]int{}); err == nil {
		t.Fatal("a bit-flipped .jsonl.gz read without error")
	}
	man, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.src.raw.total != info.Size() || r.FileSHA256() == "" || r.FileSHA256() == man.FileSHA256 {
		t.Fatalf("cut-short read hashed %d of %d bytes to %q (manifest %q)",
			r.src.raw.total, info.Size(), r.FileSHA256(), man.FileSHA256)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "raw-byte check also failed") {
		t.Fatalf("Load of a bit-flipped .jsonl.gz: want the decode error with the hash error attached, got %v", err)
	}
}
