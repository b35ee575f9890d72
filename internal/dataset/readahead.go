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
// directory's covers the concatenated segments.

package dataset

import (
	"compress/gzip"
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

// rawFile reads a file through its Reader's rawSum.
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

// startBytes starts reading raw, through gz when it is non-nil.
func startBytes(raw *rawFile, gz *gzip.Reader, rg *ring) *byteStage {
	bs := &byteStage{
		raw:  raw,
		ring: rg,
		full: make(chan block, readAheadBlocks),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	var src io.Reader = raw
	if gz != nil {
		src = gz
	}
	go bs.run(src)
	return bs
}

func (bs *byteStage) run(src io.Reader) {
	defer close(bs.done)
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
		_, err = io.Copy(io.Discard, bs.raw)
	}
	if cerr := bs.raw.f.Close(); err == nil {
		err = cerr
	}
	return err
}
