package dataset

import (
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"steamstudy/internal/simworld"
)

// The datapath benchmarks measure the data plane end to end at
// paper-adjacent scale: a 500k-user universe generated (at workers=1, the
// serial baseline, and workers=max, one worker per GOMAXPROCS), then
// saved, loaded and fsck'd through the one snapshot path — Save and Load
// through a temp .jsonl and .jsonl.gz file, Snapshot.Fsck over the
// slices. `make bench` records them in BENCH_datapath.json. At
// GOMAXPROCS=1 the two generate variants run the same code path, so the
// workers=max one is skipped there rather than recorded twice.
const benchUsers = 500_000

var (
	datapathOnce sync.Once
	datapathSnap *Snapshot
)

func datapathSnapshot(b *testing.B) *Snapshot {
	b.Helper()
	datapathOnce.Do(func() {
		cfg := simworld.DefaultConfig(benchUsers)
		u := simworld.MustGenerate(cfg, 1)
		datapathSnap = FromUniverse(u)
	})
	return datapathSnap
}

// datapathFile saves the bench snapshot to a temp file called name and
// returns its path and on-disk size (compressed, for ".jsonl.gz").
func datapathFile(b *testing.B, name string) (string, int64) {
	b.Helper()
	path := filepath.Join(b.TempDir(), name)
	if err := datapathSnapshot(b).Save(path); err != nil {
		b.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	return path, info.Size()
}

func BenchmarkDatapathGenerate500k(b *testing.B) {
	for _, v := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=max", 0}} {
		b.Run(v.name, func(b *testing.B) {
			if v.workers == 0 && runtime.GOMAXPROCS(0) == 1 {
				b.Skip("workers=max is workers=1 at GOMAXPROCS=1")
			}
			cfg := simworld.DefaultConfig(benchUsers)
			cfg.Workers = v.workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				simworld.MustGenerate(cfg, 1)
			}
		})
	}
}

// The Encode and Decode rows save and load a plain .jsonl; the Gzip rows
// do the same through .jsonl.gz, the CLI's default container.
func BenchmarkDatapathEncode500k(b *testing.B)     { benchSave(b, "bench.jsonl") }
func BenchmarkDatapathEncodeGzip500k(b *testing.B) { benchSave(b, "bench.jsonl.gz") }
func BenchmarkDatapathDecode500k(b *testing.B)     { benchLoad(b, "bench.jsonl") }
func BenchmarkDatapathDecodeGzip500k(b *testing.B) { benchLoad(b, "bench.jsonl.gz") }

func benchSave(b *testing.B, name string) {
	s := datapathSnapshot(b)
	path, size := datapathFile(b, name)
	b.ReportAllocs()
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Save(path); err != nil {
			b.Fatal(err)
		}
	}
}

func benchLoad(b *testing.B, name string) {
	path, size := datapathFile(b, name)
	b.ReportAllocs()
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Load(path); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDatapathFsck500k(b *testing.B) {
	s := datapathSnapshot(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.Fsck().Clean() {
			b.Fatal("bench universe is dirty")
		}
	}
}
