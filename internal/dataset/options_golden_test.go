package dataset

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestOptionsGolden proves the option set leaves single files untouched:
// for both single-file forms, saving the same snapshot with no options,
// with a progress callback, and with a shard size (a .d-only layout
// choice) produces byte-identical files and byte-identical manifests. The committed
// example snapshot doubles as the golden input so the assertion is pinned
// to real bytes in the tree, not to whatever this build happens to emit.
func TestOptionsGolden(t *testing.T) {
	snap, err := Load(filepath.Join("testdata", "example.snap.jsonl"))
	if err != nil {
		t.Fatalf("loading example snapshot: %v", err)
	}
	dir := t.TempDir()
	for _, ext := range []string{".jsonl", ".jsonl.gz"} {
		variants := []struct {
			name string
			opts []Option
		}{
			{"none", nil},
			{"progress", []Option{WithProgress(func(string, int) {})}},
			{"shard-records", []Option{WithShardRecords(7)}},
			{"both", []Option{WithProgress(func(string, int) {}), WithShardRecords(3)}},
		}
		var goldData, goldMan []byte
		for _, v := range variants {
			path := filepath.Join(dir, "snap-"+v.name+ext)
			if err := snap.Save(path, v.opts...); err != nil {
				t.Fatalf("%s/%s: save: %v", ext, v.name, err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			man, err := os.ReadFile(ManifestPath(path))
			if err != nil {
				t.Fatal(err)
			}
			if goldData == nil {
				goldData, goldMan = data, man
				continue
			}
			if string(data) != string(goldData) {
				t.Errorf("%s/%s: snapshot bytes differ from the no-option save", ext, v.name)
			}
			if string(man) != string(goldMan) {
				t.Errorf("%s/%s: manifest differs from the no-option save:\n%s\nvs\n%s", ext, v.name, man, goldMan)
			}
		}
	}
}

// TestOptionsGoldenRoundTrip proves a re-save of the committed example
// snapshot reproduces its committed manifest exactly — same section CRCs,
// same counts, same whole-file SHA-256 — i.e. the codec has not drifted
// from the bytes already in the tree.
func TestOptionsGoldenRoundTrip(t *testing.T) {
	src := filepath.Join("testdata", "example.snap.jsonl")
	snap, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	committed, err := ReadManifest(src)
	if err != nil {
		t.Fatal(err)
	}
	if committed == nil {
		t.Fatal("example snapshot has no committed manifest")
	}
	resaved := filepath.Join(t.TempDir(), "resave.jsonl")
	if err := snap.Save(resaved); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(resaved)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, committed) {
		t.Errorf("re-saved manifest differs from committed manifest:\ngot  %+v\nwant %+v", got, committed)
	}
}
