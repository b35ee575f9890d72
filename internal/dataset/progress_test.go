package dataset

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"steamstudy/internal/simworld"
)

// progressRecorder collects a WithProgress stream and fails the test the
// moment a section's count goes backwards.
type progressRecorder struct {
	t     *testing.T
	last  map[string]int
	calls int
}

func newProgressRecorder(t *testing.T) *progressRecorder {
	return &progressRecorder{t: t, last: map[string]int{}}
}

func (p *progressRecorder) option() Option {
	return WithProgress(func(section string, records int) {
		p.calls++
		if prev, ok := p.last[section]; ok && records < prev {
			p.t.Fatalf("progress went backwards for %s: %d -> %d", section, prev, records)
		}
		p.last[section] = records
	})
}

// The progress callback reports monotonically non-decreasing per-section
// counts and ends at the decoded totals.
func TestLoadProgressCallback(t *testing.T) {
	s := everyClassFixture()
	path := t.TempDir() + "/snap.jsonl"
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	p := newProgressRecorder(t)
	got, err := Load(path, p.option())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"users": len(got.Users), "games": len(got.Games), "groups": len(got.Groups)}
	if !reflect.DeepEqual(p.last, want) {
		t.Fatalf("final progress %v, want %v", p.last, want)
	}
	if len(got.Users) != len(s.Users) {
		t.Fatalf("decoded %d users, want %d", len(got.Users), len(s.Users))
	}
	// Several chunks' worth of records means several progress calls, not
	// one terminal report.
	if p.calls < 3+len(s.Users)/jsonlChunk {
		t.Fatalf("want chunked progress, got %d calls", p.calls)
	}
}

// Save, a hand-driven Writer, Load and FsckFile report progress through
// the one Writer/Reader path for every layout: non-decreasing per section, several reports for
// a section spanning several chunks, and final counts equal to the
// section sizes. (FsckFile on a .d directory reads groups twice; only the
// first read reports.)
func TestProgressReportsEveryLayout(t *testing.T) {
	s := everyClassFixture()
	want := map[string]int{"users": len(s.Users), "games": len(s.Games), "groups": len(s.Groups)}
	minCalls := len(s.Users) / jsonlChunk
	for _, name := range []string{"snap.jsonl", "snap.jsonl.gz", "snap.d"} {
		path := filepath.Join(t.TempDir(), name)
		steps := []struct {
			op  string
			run func(Option) error
		}{
			{"Save", func(o Option) error { return s.Save(path, WithShardRecords(1000), o) }},
			{"Writer", func(o Option) error { return drainIntoWriter(s, path, WithShardRecords(1000), o) }},
			{"Load", func(o Option) error { _, err := Load(path, o); return err }},
			{"FsckFile", func(o Option) error { _, err := FsckFile(path, nil, o); return err }},
		}
		for _, step := range steps {
			t.Run(name+"/"+step.op, func(t *testing.T) {
				p := newProgressRecorder(t)
				if err := step.run(p.option()); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(p.last, want) {
					t.Fatalf("final progress %v, want %v", p.last, want)
				}
				if p.calls < minCalls {
					t.Fatalf("%d progress calls, want at least %d", p.calls, minCalls)
				}
			})
		}
	}
}

// drainIntoWriter streams s through NewWriter record by record, as the
// out-of-core producers (WriteUniverse, the streaming merge) do.
func drainIntoWriter(s *Snapshot, path string, opts ...Option) error {
	w, err := NewWriter(path, s.CollectedAt, opts...)
	if err != nil {
		return err
	}
	defer w.Abort()
	for i := range s.Games {
		if err := w.WriteGame(&s.Games[i]); err != nil {
			return err
		}
	}
	for i := range s.Users {
		if err := w.WriteUser(&s.Users[i]); err != nil {
			return err
		}
	}
	for i := range s.Groups {
		if err := w.WriteGroup(&s.Groups[i]); err != nil {
			return err
		}
	}
	_, err = w.Close()
	return err
}

// The full pipeline — parallel generation through the snapshot Writer —
// lands on one snapshot SHA-256 regardless of how many workers generated
// the universe: the manifest hash is a pure function of (config, seed).
func TestGeneratedSnapshotSHAWorkerInvariant(t *testing.T) {
	dir := t.TempDir()
	var ref string
	for _, w := range []int{1, 2, 3, 0} {
		cfg := simworld.DefaultConfig(2000)
		cfg.CatalogSize = 80
		cfg.Workers = w
		u := simworld.MustGenerate(cfg, 42)
		path := filepath.Join(dir, fmt.Sprintf("gen-w%d.snap.jsonl", w))
		if err := FromUniverse(u).Save(path); err != nil {
			t.Fatal(err)
		}
		man, err := ReadManifest(path)
		if err != nil || man == nil {
			t.Fatalf("workers=%d: manifest: %v", w, err)
		}
		if ref == "" {
			ref = man.FileSHA256
		} else if man.FileSHA256 != ref {
			t.Fatalf("workers=%d: snapshot SHA-256 %s differs from %s", w, man.FileSHA256, ref)
		}
	}
}
