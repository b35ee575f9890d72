package dataset

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// readShardStream concatenates a sharded directory's segments in manifest
// order — the byte stream the layout promises is identical to the
// single-file export.
func readShardStream(t *testing.T, dir string) []byte {
	t.Helper()
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := shardSegments(dir, man)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, seg := range segs {
		b, err := os.ReadFile(filepath.Join(dir, seg.file))
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
	}
	return buf.Bytes()
}

func TestShardedSaveLoadRoundTrip(t *testing.T) {
	s := persistSnapshot()
	dir := filepath.Join(t.TempDir(), "snap.d")
	// Shard size 7 forces multiple user segments plus partial tails.
	if err := s.Save(dir, WithShardRecords(7)); err != nil {
		t.Fatal(err)
	}
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man == nil || man.FormatVersion != SnapshotShardFormatVersion {
		t.Fatalf("manifest = %+v, want format version %d", man, SnapshotShardFormatVersion)
	}
	if man.ShardRecords != 7 {
		t.Fatalf("ShardRecords = %d, want 7", man.ShardRecords)
	}
	// 20 users at 7/segment → 3 user segments; 2 games and 1 group fit in
	// one segment each; plus the header segment.
	wantSegs := 1 + 1 + 3 + 1
	if len(man.Shards) != wantSegs {
		t.Fatalf("len(Shards) = %d, want %d: %+v", len(man.Shards), wantSegs, man.Shards)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatal("sharded round trip changed the snapshot")
	}
	if got.ContentSignature() != s.ContentSignature() {
		t.Fatal("sharded round trip changed the content signature")
	}
}

func TestShardedStreamMatchesSingleFileBytes(t *testing.T) {
	s := persistSnapshot()
	tmp := t.TempDir()
	single := filepath.Join(tmp, "snap.jsonl")
	dir := filepath.Join(tmp, "snap.d")
	if err := s.Save(single); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(dir, WithShardRecords(3)); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(single)
	if err != nil {
		t.Fatal(err)
	}
	if got := readShardStream(t, dir); !bytes.Equal(got, want) {
		t.Fatal("concatenated shard segments differ from the single-file export")
	}
	sman, err := ReadManifest(single)
	if err != nil {
		t.Fatal(err)
	}
	dman, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sman.FileSHA256 != dman.FileSHA256 || sman.FileBytes != dman.FileBytes {
		t.Fatalf("file hash/bytes differ across layouts: single %s/%d, sharded %s/%d",
			sman.FileSHA256, sman.FileBytes, dman.FileSHA256, dman.FileBytes)
	}
	if !reflect.DeepEqual(sman.Sections, dman.Sections) {
		t.Fatalf("section sums differ across layouts: %+v vs %+v", sman.Sections, dman.Sections)
	}
}

// TestShardedRoundTripMatrix is the layout-parity property test: every
// layout × shard-size combination must produce the same decoded content
// (ContentSignature), and the uncompressed layouts the same stream hash.
func TestShardedRoundTripMatrix(t *testing.T) {
	s := persistSnapshot()
	wantSig := s.ContentSignature()
	var jsonlSHA string
	for _, name := range []string{"snap.jsonl", "snap.jsonl.gz", "snap.d"} {
		for _, shard := range []int{1, 5, 0} {
			path := filepath.Join(t.TempDir(), name)
			if err := s.Save(path, WithShardRecords(shard)); err != nil {
				t.Fatalf("%s shard=%d: save: %v", name, shard, err)
			}
			got, err := Load(path)
			if err != nil {
				t.Fatalf("%s shard=%d: load: %v", name, shard, err)
			}
			if sig := got.ContentSignature(); sig != wantSig {
				t.Fatalf("%s shard=%d: content signature %s, want %s", name, shard, sig, wantSig)
			}
			if name == "snap.jsonl" || name == "snap.d" {
				man, err := ReadManifest(path)
				if err != nil {
					t.Fatal(err)
				}
				if jsonlSHA == "" {
					jsonlSHA = man.FileSHA256
				} else if man.FileSHA256 != jsonlSHA {
					t.Fatalf("%s shard=%d: stream hash %s, want %s", name, shard, man.FileSHA256, jsonlSHA)
				}
			}
		}
	}
}

func TestCheckSnapshotPathAcceptsShardDir(t *testing.T) {
	for _, p := range []string{"snap.d", "out/snap.d", "snap.d/"} {
		if err := CheckSnapshotPath(p); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
	}
	for _, p := range []string{"snap.d/users-0000.jsonl", "out/snap.d/header.jsonl", "snap.d/groups-0012.jsonl"} {
		err := CheckSnapshotPath(p)
		if !errors.Is(err, ErrShardSegment) {
			t.Fatalf("%s: want ErrShardSegment, got %v", p, err)
		}
	}
	// A .jsonl file that merely lives inside some unrelated directory is
	// still a snapshot.
	if err := CheckSnapshotPath("outdir/snap.jsonl"); err != nil {
		t.Fatal(err)
	}
}

func TestWriterRejectsOutOfOrderSections(t *testing.T) {
	w, err := NewWriter(filepath.Join(t.TempDir(), "snap.d"), 1, WithShardRecords(4))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if err := w.WriteUser(&UserRecord{SteamID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteGame(&GameRecord{AppID: 10}); err == nil ||
		!strings.Contains(err.Error(), "order") {
		t.Fatalf("want section-order error, got %v", err)
	}
}

// The retired gob container is an unknown extension to the Writer, and
// the error names the accepted forms.
func TestWriterRejectsGob(t *testing.T) {
	for _, name := range []string{"snap.gob", "snap.gob.gz"} {
		_, err := NewWriter(filepath.Join(t.TempDir(), name), 1)
		if err == nil || !strings.Contains(err.Error(), "want .jsonl, .jsonl.gz or a .d directory") {
			t.Fatalf("%s: want unknown-extension error naming the accepted forms, got %v", name, err)
		}
	}
}

func TestWriterSingleFileMatchesSave(t *testing.T) {
	s := persistSnapshot()
	for _, name := range []string{"snap.jsonl", "snap.jsonl.gz"} {
		tmp := t.TempDir()
		saved := filepath.Join(tmp, "saved-"+name)
		streamed := filepath.Join(tmp, name)
		if err := s.Save(saved); err != nil {
			t.Fatal(err)
		}
		if err := drainIntoWriter(s, streamed); err != nil {
			t.Fatal(err)
		}
		man, err := ReadManifest(streamed)
		if err != nil {
			t.Fatal(err)
		}
		a, err := os.ReadFile(saved)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(streamed)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: streamed bytes differ from Save", name)
		}
		saveMan, err := ReadManifest(saved)
		if err != nil {
			t.Fatal(err)
		}
		if man.FileSHA256 != saveMan.FileSHA256 || !reflect.DeepEqual(man.Sections, saveMan.Sections) {
			t.Fatalf("%s: streamed manifest differs from Save's", name)
		}
	}
}

func TestOpenSectionYieldsOneSection(t *testing.T) {
	s := persistSnapshot()
	tmp := t.TempDir()
	for _, name := range []string{"snap.jsonl", "snap.jsonl.gz", "snap.d"} {
		path := filepath.Join(tmp, name)
		if err := s.Save(path, WithShardRecords(6)); err != nil {
			t.Fatal(err)
		}
		r, err := OpenSection(path, "users")
		if err != nil {
			t.Fatal(err)
		}
		var got []UserRecord
		var rec Record
		for {
			ok, err := r.Next(&rec)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !ok {
				break
			}
			if rec.Kind != KindUser {
				t.Fatalf("%s: kind %d leaked through the users filter", name, rec.Kind)
			}
			got = append(got, rec.User)
		}
		if r.CollectedAt() != s.CollectedAt {
			t.Fatalf("%s: CollectedAt %d, want %d", name, r.CollectedAt(), s.CollectedAt)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, s.Users) {
			t.Fatalf("%s: streamed users differ from the snapshot", name)
		}
	}
	if _, err := OpenSection(filepath.Join(tmp, "snap.d"), "nope"); err == nil {
		t.Fatal("unknown section accepted")
	}
}

func TestOpenReaderStreamsAllSectionsInOrder(t *testing.T) {
	s := persistSnapshot()
	path := filepath.Join(t.TempDir(), "snap.d")
	if err := s.Save(path, WithShardRecords(4)); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.CollectedAt() != s.CollectedAt {
		t.Fatalf("CollectedAt %d before first record, want %d (sharded readers prime the header)",
			r.CollectedAt(), s.CollectedAt)
	}
	got := &Snapshot{CollectedAt: r.CollectedAt()}
	var rec Record
	var order []RecordKind
	for {
		ok, err := r.Next(&rec)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		order = append(order, rec.Kind)
		switch rec.Kind {
		case KindGame:
			got.Games = append(got.Games, rec.Game)
		case KindUser:
			got.Users = append(got.Users, rec.User)
		case KindGroup:
			got.Groups = append(got.Groups, rec.Group)
		}
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatal("streamed snapshot differs")
	}
	// Canonical order: games, then users, then groups, never interleaved.
	last := RecordKind(0)
	for _, k := range order {
		if k < last {
			t.Fatalf("records out of section order: %v", order)
		}
		last = k
	}
	if sha := r.FileSHA256(); sha == "" || sha != r.Manifest().FileSHA256 {
		t.Fatalf("reader stream hash %q, manifest %q", sha, r.Manifest().FileSHA256)
	}
}

func TestShardedLoadDetectsSegmentCorruption(t *testing.T) {
	s := persistSnapshot()
	dir := filepath.Join(t.TempDir(), "snap.d")
	if err := s.Save(dir, WithShardRecords(7)); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "users-0001.jsonl")
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one digit inside a numeric field: still valid JSONL, so only
	// the checksums can catch it.
	i := bytes.Index(b, []byte(`"TotalMinutes":600`))
	if i < 0 {
		t.Fatalf("marker not found in %s", seg)
	}
	b[i+len(`"TotalMinutes":`)] = '7'
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Load(dir)
	if err == nil || !strings.Contains(err.Error(), "users-0001.jsonl") {
		t.Fatalf("want error naming the damaged segment, got %v", err)
	}
}

func TestShardedLoadDetectsTruncatedSegment(t *testing.T) {
	s := persistSnapshot()
	dir := filepath.Join(t.TempDir(), "snap.d")
	if err := s.Save(dir, WithShardRecords(7)); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "users-0002.jsonl")
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, b[:len(b)-len(b)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Load(dir)
	if err == nil || !strings.Contains(err.Error(), "users-0002.jsonl") {
		t.Fatalf("want error naming the truncated segment, got %v", err)
	}
}

func TestShardedLoadWithoutManifest(t *testing.T) {
	s := persistSnapshot()
	dir := filepath.Join(t.TempDir(), "snap.d")
	if err := s.Save(dir, WithShardRecords(7)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(ManifestPath(dir)); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatal("manifest-less sharded load differs")
	}
}

func TestShardSegmentsRejectsGap(t *testing.T) {
	s := persistSnapshot()
	dir := filepath.Join(t.TempDir(), "snap.d")
	if err := s.Save(dir, WithShardRecords(7)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(ManifestPath(dir)); err != nil {
		t.Fatal(err)
	}
	// With the manifest gone the scan must notice a missing middle
	// segment instead of silently truncating the section.
	if err := os.Remove(filepath.Join(dir, "users-0001.jsonl")); err != nil {
		t.Fatal(err)
	}
	_, err := Load(dir)
	if err == nil || !strings.Contains(err.Error(), "users-0001.jsonl missing") {
		t.Fatalf("want gap error, got %v", err)
	}
}

func TestShardedSaveReplacesExisting(t *testing.T) {
	s := persistSnapshot()
	dir := filepath.Join(t.TempDir(), "snap.d")
	if err := s.Save(dir, WithShardRecords(3)); err != nil {
		t.Fatal(err)
	}
	smaller := &Snapshot{CollectedAt: s.CollectedAt, Users: s.Users[:5], Games: s.Games, Groups: nil}
	if err := smaller.Save(dir, WithShardRecords(100)); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Users) != 5 || len(got.Groups) != 0 {
		t.Fatalf("reload after replace: %d users / %d groups, want 5 / 0", len(got.Users), len(got.Groups))
	}
	// No leftovers from the first save (its extra segments, temp dirs).
	entries, err := os.ReadDir(filepath.Dir(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("temp litter after replace: %s", e.Name())
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "users-0001.jsonl")); !os.IsNotExist(err) {
		t.Fatalf("old segment survived the replace: %v", err)
	}
}

func TestWriterAbortLeavesNoLitter(t *testing.T) {
	tmp := t.TempDir()
	for _, name := range []string{"snap.d", "snap.jsonl"} {
		w, err := NewWriter(filepath.Join(tmp, name), 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteUser(&UserRecord{SteamID: 1}); err != nil {
			t.Fatal(err)
		}
		w.Abort()
		if _, err := w.Close(); err == nil {
			t.Fatal("Close after Abort succeeded")
		}
	}
	entries, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("aborted writers left litter: %v", entries)
	}
}
