package dataset

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
	"time"

	"steamstudy/internal/simworld"
)

// withGzipWorkers runs fn with the block compressor's worker count set.
func withGzipWorkers(t *testing.T, workers int, fn func()) {
	t.Helper()
	old := gzipWorkers
	gzipWorkers = workers
	defer func() { gzipWorkers = old }()
	fn()
}

// gzPayload returns n bytes of deterministic, JSONL-like, compressible
// text.
func gzPayload(n int) []byte {
	b := make([]byte, 0, n+64)
	x := uint64(88172645463325252)
	for len(b) < n {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b = append(b, `{"SteamID":`...)
		b = strconv.AppendUint(b, x%100000, 10)
		b = append(b, `,"Games":[`...)
		b = strconv.AppendUint(b, x>>40, 10)
		b = append(b, "]}\n"...)
	}
	return b[:n]
}

// blockGzipBytes compresses payload with the block compressor, writing it
// in uneven pieces so block boundaries fall inside a Write.
func blockGzipBytes(t *testing.T, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	z := newBlockGzip(&buf)
	for p, step := payload, 1; len(p) > 0; step = step*7%65521 + 1 {
		k := min(step, len(p))
		if _, err := z.Write(p[:k]); err != nil {
			t.Fatal(err)
		}
		p = p[k:]
	}
	if err := z.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

var gzSizes = []int{0, 1, gzipBlockSize - 1, gzipBlockSize, gzipBlockSize + 1, 3*gzipBlockSize + 7}

// The block compressor writes one gzip member that compress/gzip reads
// back exactly, with gzip.Writer's header and a correct CRC-32 and ISIZE
// trailer, at every size around the block boundaries and at one worker
// (inline) and several.
func TestBlockGzipRoundTrip(t *testing.T) {
	for _, size := range gzSizes {
		payload := gzPayload(size)
		for _, workers := range []int{1, 2} {
			withGzipWorkers(t, workers, func() {
				raw := blockGzipBytes(t, payload)
				if !bytes.Equal(raw[:10], gzipHeader[:]) {
					t.Fatalf("size %d workers %d: header % x", size, workers, raw[:10])
				}
				tail := raw[len(raw)-8:]
				if got, want := binary.LittleEndian.Uint32(tail), crc32.ChecksumIEEE(payload); got != want {
					t.Fatalf("size %d workers %d: CRC %08x, want %08x", size, workers, got, want)
				}
				if got := binary.LittleEndian.Uint32(tail[4:]); got != uint32(size) {
					t.Fatalf("size %d workers %d: ISIZE %d", size, workers, got)
				}
				zr, err := gzip.NewReader(bytes.NewReader(raw))
				if err != nil {
					t.Fatal(err)
				}
				zr.Multistream(false)
				got, err := io.ReadAll(zr)
				if err != nil {
					t.Fatalf("size %d workers %d: %v", size, workers, err)
				}
				if !bytes.Equal(got, payload) {
					t.Fatalf("size %d workers %d: inflated %d bytes differ from the payload", size, workers, len(got))
				}
				// One member: nothing follows the trailer.
				if _, err := zr.Read(make([]byte, 1)); err != io.EOF {
					t.Fatalf("size %d workers %d: bytes after the member (%v)", size, workers, err)
				}
			})
		}
	}
}

// The compressed bytes are a function of the payload alone: 1, 2 and 4
// workers write the same stream, block for block.
func TestBlockGzipBytesIndependentOfWorkers(t *testing.T) {
	payload := gzPayload(3*gzipBlockSize + 7)
	var want []byte
	for _, workers := range []int{1, 2, 4} {
		withGzipWorkers(t, workers, func() {
			got := blockGzipBytes(t, payload)
			if want == nil {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Fatalf("workers=%d: %d compressed bytes differ from workers=1's %d", workers, len(got), len(want))
			}
		})
	}
}

// A saved universe spanning more than one block is the same file at
// every worker count, and loads back to the universe.
func TestGzipSaveBytesIndependentOfWorkers(t *testing.T) {
	uni := simworld.MustGenerate(simworld.DefaultConfig(pinUsers), 3)
	path := filepath.Join(t.TempDir(), "snap.jsonl.gz")
	var want []byte
	for _, workers := range []int{1, 2, 4} {
		withGzipWorkers(t, workers, func() {
			if err := WriteUniverse(path, uni); err != nil {
				t.Fatal(err)
			}
			got := readFileT(t, path)
			if want == nil {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Fatalf("workers=%d: .jsonl.gz differs from workers=1's", workers)
			}
		})
	}
	if isize := binary.LittleEndian.Uint32(want[len(want)-4:]); isize <= gzipBlockSize {
		t.Fatalf("payload of %d bytes fits one block; the test wants several", isize)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.ContentSignature() != FromUniverse(uni).ContentSignature() {
		t.Fatal("loaded block-compressed snapshot differs from the universe")
	}
}

var errDiskFull = errors.New("disk full")

// failAfter passes n bytes through to w, then fails every write.
type failAfter struct {
	w io.Writer
	n int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		k, _ := f.w.Write(p[:f.n])
		f.n = 0
		return k, errDiskFull
	}
	f.n -= len(p)
	return f.w.Write(p)
}

// waitGoroutines waits briefly for the goroutine count to fall back to
// base: a joined worker has called Done but may not have returned yet.
func waitGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// A destination that fails mid-stream fails the save: Close returns the
// first write error, the temp file is gone, nothing is published, and
// no compressor goroutine outlives the writer.
func TestGzipSaveDestinationFailure(t *testing.T) {
	uni := simworld.MustGenerate(simworld.DefaultConfig(pinUsers), 3)
	for _, workers := range []int{1, 4} {
		for _, after := range []int{0, 5, 100_000} {
			withGzipWorkers(t, workers, func() {
				base := runtime.NumGoroutine()
				dir := t.TempDir()
				path := filepath.Join(dir, "snap.jsonl.gz")
				w, err := NewWriter(path, 0)
				if err != nil {
					t.Fatal(err)
				}
				w.cw.w = &failAfter{w: w.cw.w, n: after}
				src := universeSource(uni)
				for _, section := range writerSections {
					if _, err := each(src, section, w.writeRecord); err != nil {
						break
					}
				}
				_, err = w.Close()
				if !errors.Is(err, errDiskFull) {
					t.Fatalf("workers=%d after=%d: Close returned %v, want the write error", workers, after, err)
				}
				entries, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range entries {
					t.Errorf("workers=%d after=%d: %s left behind", workers, after, e.Name())
				}
				waitGoroutines(t, base, "failed save")
			})
		}
	}
}

// Close, abort and a failed write each join the pool. The payload is
// longer than the 4 + 2 blocks the pool may queue, so Write itself must
// write a block and meet the failing destination.
func TestBlockGzipJoinsWorkers(t *testing.T) {
	payload := gzPayload(10*gzipBlockSize + 3)
	withGzipWorkers(t, 4, func() {
		base := runtime.NumGoroutine()

		z := newBlockGzip(io.Discard)
		z.Write(payload)
		if err := z.Close(); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, base, "Close")

		z = newBlockGzip(io.Discard)
		z.Write(payload)
		z.abort()
		waitGoroutines(t, base, "abort")
		if _, err := z.Write([]byte("x")); err == nil {
			t.Fatal("Write after abort succeeded")
		}

		z = newBlockGzip(&failAfter{w: io.Discard, n: 10})
		if _, err := z.Write(payload); !errors.Is(err, errDiskFull) {
			t.Fatalf("Write returned %v, want the write error", err)
		}
		waitGoroutines(t, base, "failed write")
		if err := z.Close(); !errors.Is(err, errDiskFull) {
			t.Fatalf("Close returned %v, want the first write error", err)
		}
	})
}
