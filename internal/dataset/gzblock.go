// Block-parallel gzip. A ".jsonl.gz" is one gzip member whose deflate
// stream is cut into independent fixed-size blocks: each block is
// deflated from an empty window by its own flate.Writer, every block but
// the last ends with a sync flush (an empty stored block, so the next
// block starts byte-aligned) and the last with the final block. Because
// no block refers back into another, the blocks compress on a bounded
// pool and concatenate, in order, into a stream any inflater reads as
// one. Each block's bytes are a pure function of its uncompressed bytes,
// so the file is identical for every worker count.

package dataset

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"sync"

	"steamstudy/internal/par"
)

// gzipBlockSize is the uncompressed length of every block but the last.
const gzipBlockSize = 1 << 20

// gzipWorkers is the block compressor's worker knob, resolved by par.N:
// 0 means one worker per CPU. Only tests change it, to show that the
// bytes do not depend on it.
var gzipWorkers int

// gzipHeader is the 10-byte member header gzip.Writer writes at levels
// other than 1 and 9 with no name, comment or mtime: magic, deflate, no
// flags, mtime 0, XFL 0, OS unknown.
var gzipHeader = [10]byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 255}

var errGzipClosed = errors.New("dataset: gzip stream closed")

// gzBlock is one block in flight: its uncompressed bytes, its deflated
// bytes once done receives, and whether it ends the stream.
type gzBlock struct {
	in   []byte
	out  bytes.Buffer
	last bool
	done chan struct{}
}

// blockGzip is the io.WriteCloser behind every ".jsonl.gz" the Writer
// saves. Write fills the current block; a full block is handed off once
// a further byte arrives, so the last block is never empty unless the
// whole stream is. With one worker each block deflates inline in the
// caller and no goroutine starts; with more, at most workers+2 blocks
// are queued, and the caller writes finished blocks to dst in order, so
// dst sees the compressed stream sequentially from the one goroutine.
// The first dst error stops the pool and is returned from then on.
type blockGzip struct {
	dst  io.Writer
	cur  *gzBlock
	crc  uint32
	size uint32 // ISIZE: uncompressed length mod 2^32
	err  error

	fw    *flate.Writer // the inline compressor (one worker)
	jobs  chan *gzBlock // the pool's queue (more than one worker)
	wg    sync.WaitGroup
	queue []*gzBlock // handed off, not yet written, in stream order
	free  []*gzBlock
}

func newBlockGzip(dst io.Writer) *blockGzip {
	z := &blockGzip{dst: dst}
	workers := par.N(gzipWorkers)
	if workers <= 1 {
		z.fw, _ = flate.NewWriter(nil, gzipLevel) // errs only on an invalid level
	} else {
		// The queue holds workers+2 blocks, and the channel the same, so
		// handing off a block never blocks.
		z.jobs = make(chan *gzBlock, workers+2)
		z.wg.Add(workers)
		for i := 0; i < workers; i++ {
			go z.work(z.jobs)
		}
	}
	z.cur = z.block()
	// Deflate appends to out, so block 0 carries the member header.
	z.cur.out.Write(gzipHeader[:])
	return z
}

// work deflates blocks from jobs until it closes.
func (z *blockGzip) work(jobs <-chan *gzBlock) {
	defer z.wg.Done()
	fw, _ := flate.NewWriter(nil, gzipLevel)
	for blk := range jobs {
		deflateBlock(fw, blk)
		blk.done <- struct{}{}
	}
}

// deflateBlock appends blk.in, deflated from an empty window, to
// blk.out. Writes into a bytes.Buffer cannot fail.
func deflateBlock(fw *flate.Writer, blk *gzBlock) {
	fw.Reset(&blk.out)
	fw.Write(blk.in)
	if blk.last {
		fw.Close()
	} else {
		fw.Flush()
	}
}

// block returns an empty block, reusing one already written.
func (z *blockGzip) block() *gzBlock {
	if n := len(z.free); n > 0 {
		blk := z.free[n-1]
		z.free = z.free[:n-1]
		return blk
	}
	return &gzBlock{in: make([]byte, 0, gzipBlockSize), done: make(chan struct{}, 1)}
}

func (z *blockGzip) Write(p []byte) (int, error) {
	if z.err != nil {
		return 0, z.err
	}
	n := len(p)
	for len(p) > 0 {
		if len(z.cur.in) == gzipBlockSize {
			if z.submit(false); z.err != nil {
				return n - len(p), z.err
			}
		}
		in := z.cur.in
		k := copy(in[len(in):gzipBlockSize], p)
		z.cur.in = in[:len(in)+k]
		p = p[k:]
	}
	return n, nil
}

// submit hands the current block off for compression and starts a new
// one. The CRC and ISIZE cover the blocks in stream order.
func (z *blockGzip) submit(last bool) {
	blk := z.cur
	blk.last = last
	z.crc = crc32.Update(z.crc, crc32.IEEETable, blk.in)
	z.size += uint32(len(blk.in))
	if z.fw != nil {
		deflateBlock(z.fw, blk)
		z.emit(blk)
	} else {
		if len(z.queue) == cap(z.jobs) {
			if z.emitHead(); z.err != nil {
				return
			}
		}
		z.queue = append(z.queue, blk)
		z.jobs <- blk
		z.emitReady()
	}
	if !last {
		z.cur = z.block()
	}
}

// emitReady writes queued blocks from the head for as long as they have
// finished, without waiting.
func (z *blockGzip) emitReady() {
	for len(z.queue) > 0 {
		select {
		case <-z.queue[0].done:
			z.emitDone()
		default:
			return
		}
	}
}

// emitHead waits for the oldest queued block and writes it.
func (z *blockGzip) emitHead() {
	<-z.queue[0].done
	z.emitDone()
}

// emitDone writes the oldest queued block, whose done has been received.
func (z *blockGzip) emitDone() {
	blk := z.queue[0]
	z.queue = z.queue[1:]
	z.emit(blk)
}

// emit writes one compressed block to dst and recycles it. After a dst
// error nothing more is written and the pool stops.
func (z *blockGzip) emit(blk *gzBlock) {
	if z.err == nil {
		_, z.err = z.dst.Write(blk.out.Bytes())
	}
	blk.in, blk.last = blk.in[:0], false
	blk.out.Reset()
	z.free = append(z.free, blk)
	if z.err != nil {
		z.stop()
	}
}

// stop closes the pool's queue and joins its workers; queued blocks are
// dropped. Safe to call more than once.
func (z *blockGzip) stop() {
	if z.jobs == nil {
		return
	}
	close(z.jobs)
	z.wg.Wait()
	z.jobs = nil
	z.queue = nil
}

// Close compresses the last block, writes every queued block and the
// CRC-32/ISIZE trailer, and joins the pool. It returns the first dst
// error, if any.
func (z *blockGzip) Close() error {
	if z.err != nil {
		z.stop()
		return z.err
	}
	z.submit(true)
	for z.err == nil && len(z.queue) > 0 {
		z.emitHead()
	}
	z.stop()
	if z.err != nil {
		return z.err
	}
	var trailer [8]byte
	binary.LittleEndian.PutUint32(trailer[:4], z.crc)
	binary.LittleEndian.PutUint32(trailer[4:], z.size)
	if _, err := z.dst.Write(trailer[:]); err != nil {
		z.err = err
		return err
	}
	z.err = errGzipClosed
	return nil
}

// abort joins the pool without writing anything more.
func (z *blockGzip) abort() {
	if z.err == nil {
		z.err = errGzipClosed
	}
	z.stop()
}
