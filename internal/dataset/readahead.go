// The Reader's byte stage. Each file a Reader opens — the single
// snapshot file, or one segment of a sharded directory at a time — is
// read on a goroutine of its own, ahead of the line splitter, and a
// ".jsonl.gz" is inflated there. The bytes arrive in order as blocks of
// a small ring that the Reader keeps for all of its files:
//
//	disk ─▶ rawFile (SHA-256, segment CRC-32C) ─▶ [inflate] ─▶ ring
//
// The raw sums sit below the inflater, so a single file's SHA-256 covers
// its on-disk bytes, which is what its manifest records, and a
// directory's covers the concatenated segments. rawSum's checks are the
// only comparison of raw bytes with a manifest: VerifyFile and fsck's
// verifyShardBytes hash through a rawSum too.

package dataset

import (
	"compress/gzip"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"os"
)

// readAheadBlock is the length of one ring block, and readAheadBlocks
// the number of blocks one Reader may hold: the block being split, plus
// up to three filled ahead of it.
const (
	readAheadBlock  = 1 << 20
	readAheadBlocks = 4
)

// block is the next run of a file's (inflated) bytes. A non-nil err ends
// the file: io.EOF at its end, else the error that cut it short, with b
// holding the bytes before it.
type block struct {
	b   []byte
	err error
}

// ring recycles one Reader's blocks across the files it reads in turn.
// Blocks are made on first need, so a small file costs one.
type ring struct {
	free chan []byte
	n    int // blocks made; only the running byte stage touches it
}

func newRing() *ring { return &ring{free: make(chan []byte, readAheadBlocks)} }

// get returns a free block, making one while fewer than readAheadBlocks
// exist; nil once quit closes.
func (rg *ring) get(quit <-chan struct{}) []byte {
	select {
	case b := <-rg.free:
		return b
	default:
	}
	if rg.n < readAheadBlocks {
		rg.n++
		return make([]byte, readAheadBlock)
	}
	select {
	case b := <-rg.free:
		return b
	case <-quit:
		return nil
	}
}

// put returns a block to the ring. It never blocks: the ring's channel
// holds every block there is.
func (rg *ring) put(b []byte) { rg.free <- b[:cap(b)] }

// rawSum accumulates what a Reader checks of the bytes on disk: the
// whole stream's SHA-256 (nil when not wanted), the open segment's
// CRC-32C (nil when not checked), and byte counts.
type rawSum struct {
	sha   hash.Hash
	crc   hash.Hash32
	n     int64 // bytes of the open file
	total int64 // bytes of every file read so far
	eof   bool  // the open file has been read to its end
}

// rawFile reads a file through a rawSum.
type rawFile struct {
	f   *os.File
	sum *rawSum
}

func (rf *rawFile) Read(p []byte) (int, error) {
	n, err := rf.f.Read(p)
	if s := rf.sum; n > 0 {
		if s.sha != nil {
			s.sha.Write(p[:n])
		}
		if s.crc != nil {
			s.crc.Write(p[:n])
		}
		s.n += int64(n)
		s.total += int64(n)
	}
	if err == io.EOF {
		rf.sum.eof = true
	}
	return n, err
}

// drain reads the rest of the file through its rawSum, 32 KiB at a time.
func (rf *rawFile) drain() error {
	buf := make([]byte, 32<<10)
	for {
		if _, err := rf.Read(buf); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
}

// open starts a file of the stream: f's bytes are read through s.
func (s *rawSum) open(f *os.File) *rawFile {
	s.n, s.eof = 0, false
	return &rawFile{f: f, sum: s}
}

// readFile reads the file at path to its end through s.
func (s *rawSum) readFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return s.open(f).drain()
}

// sizeErr, verifyStream and verifySegment are the one wording of each
// raw-byte mismatch, the size checked before the hash.
func sizeErr(name string, got, want int64) error {
	if got == want {
		return nil
	}
	return fmt.Errorf("dataset: %s is %d bytes, manifest records %d (truncated or partially overwritten)", name, got, want)
}

// verifyStream checks every byte read against FileBytes and FileSHA256.
func (s *rawSum) verifyStream(name string, m *Manifest) error {
	if err := sizeErr(name, s.total, m.FileBytes); err != nil {
		return err
	}
	if got := hex.EncodeToString(s.sha.Sum(nil)); got != m.FileSHA256 {
		return fmt.Errorf("dataset: %s file hash mismatch (got %s, manifest %s): on-disk corruption", name, got, m.FileSHA256)
	}
	return nil
}

// verifySegment checks the open segment of directory dir against sum.
func (s *rawSum) verifySegment(dir string, sum *ShardSum) error {
	name := dir + ": segment " + sum.File
	if err := sizeErr(name, s.n, sum.Bytes); err != nil {
		return err
	}
	if got := s.crc.Sum32(); got != sum.CRC32C {
		return fmt.Errorf("dataset: %s checksum mismatch (file %08x, manifest %08x): on-disk corruption", name, got, sum.CRC32C)
	}
	return nil
}

// byteStage fills ring blocks from one file on its own goroutine. Its
// full channel holds as many blocks as the ring, so the stage only ever
// waits for a free block.
type byteStage struct {
	raw  *rawFile
	ring *ring
	full chan block
	quit chan struct{}
	done chan struct{}
}

// startBytes starts reading raw, inflating it when gzipped.
func startBytes(raw *rawFile, gzipped bool, rg *ring) *byteStage {
	bs := &byteStage{
		raw:  raw,
		ring: rg,
		full: make(chan block, readAheadBlocks),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	go bs.run(gzipped)
	return bs
}

func (bs *byteStage) run(gzipped bool) {
	defer close(bs.done)
	var src io.Reader = bs.raw
	if gzipped {
		src = inflate(bs.raw)
	}
	for {
		buf := bs.ring.get(bs.quit)
		if buf == nil {
			return
		}
		n, err := fillBlock(src, buf)
		select {
		case bs.full <- block{b: buf[:n], err: err}:
		case <-bs.quit:
			bs.ring.put(buf)
			return
		}
		if err != nil {
			return
		}
	}
}

// inflate returns a reader of raw's inflated bytes. A damaged gzip
// header fails its first read, ending the stream like damage anywhere
// else in the file.
func inflate(raw io.Reader) io.Reader {
	zr, err := gzip.NewReader(raw)
	if err != nil {
		return failedReader{fmt.Errorf("gzip header: %w", err)}
	}
	return zr
}

type failedReader struct{ err error }

func (fr failedReader) Read([]byte) (int, error) { return 0, fr.err }

// fillBlock reads into buf until it is full or src ends.
func fillBlock(src io.Reader, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		k, err := src.Read(buf[n:])
		n += k
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// close stops and joins the stage, returns its unread blocks to the ring
// and closes the file. With rest set, the file's remaining raw bytes are
// first read into the rawSum, so a stream cut short still has its
// whole-file check.
func (bs *byteStage) close(rest bool) error {
	close(bs.quit)
	<-bs.done
	for len(bs.full) > 0 {
		bs.ring.put((<-bs.full).b)
	}
	var err error
	if rest {
		err = bs.raw.drain()
	}
	if cerr := bs.raw.f.Close(); err == nil {
		err = cerr
	}
	return err
}
