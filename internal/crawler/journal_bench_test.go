package crawler

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"steamstudy/internal/dataset"
	"steamstudy/internal/simworld"
)

// benchJournalUsers is the population of the journal benchmarks: every
// user of a generated universe (seed 3), journaled as phase 2 does.
const benchJournalUsers = 20_000

var benchUsers = sync.OnceValue(func() []dataset.UserRecord {
	return dataset.FromUniverse(simworld.MustGenerate(simworld.DefaultConfig(benchJournalUsers), 3)).Users
})

// journalUsers journals every bench user into a fresh journal at dir.
func journalUsers(b *testing.B, dir string) {
	jr, _, err := openJournal(dir, 0, &Metrics{})
	if err != nil {
		b.Fatal(err)
	}
	users := benchUsers()
	for i := range users {
		if err := jr.appendUser(&users[i]); err != nil {
			b.Fatal(err)
		}
	}
	if err := jr.Close(); err != nil {
		b.Fatal(err)
	}
}

// dirBytes sums the sizes of the files in dir whose names contain part.
func dirBytes(b *testing.B, dir, part string) float64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	var n int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && strings.Contains(e.Name(), part) {
			n += info.Size()
		}
	}
	return float64(n)
}

// replayBench opens the journal at dir b.N times and reports µs per user.
func replayBench(b *testing.B, dir string) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jr, st, err := openJournal(dir, 0, &Metrics{})
		if err != nil {
			b.Fatal(err)
		}
		jr.Close()
		if len(st.users) != benchJournalUsers {
			b.Fatalf("replayed %d users", len(st.users))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*benchJournalUsers), "us/user")
}

// BenchmarkJournalAppend journals every user of the universe into a
// fresh journal per op: append µs per user and journal bytes per user.
func BenchmarkJournalAppend(b *testing.B) {
	benchUsers()
	b.ReportAllocs()
	b.ResetTimer()
	var bytes float64
	for i := 0; i < b.N; i++ {
		dir := filepath.Join(b.TempDir(), "j")
		journalUsers(b, dir)
		bytes = dirBytes(b, dir, segPrefix)
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*benchJournalUsers), "us/user")
	b.ReportMetric(bytes/benchJournalUsers, "B/user")
}

// BenchmarkJournalReplay replays the journaled universe from its
// segments: replay µs per user.
func BenchmarkJournalReplay(b *testing.B) {
	dir := filepath.Join(b.TempDir(), "j")
	journalUsers(b, dir)
	replayBench(b, dir)
}

// BenchmarkJournalBaseReplay replays the journaled universe after a
// compaction, from its base alone: replay µs per user and the base's
// bytes on disk.
func BenchmarkJournalBaseReplay(b *testing.B) {
	dir := filepath.Join(b.TempDir(), "j")
	journalUsers(b, dir)
	if err := CompactJournal(dir); err != nil {
		b.Fatal(err)
	}
	replayBench(b, dir)
	b.ReportMetric(dirBytes(b, dir, "base"), "base_B")
}
