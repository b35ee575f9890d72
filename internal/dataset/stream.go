// Streaming snapshot iterators. Writer emits records one at a time into
// either a single JSONL file or the sharded directory layout (shard.go),
// accumulating the manifest (section CRCs, per-shard sums, whole-stream
// SHA-256) as it goes, so a snapshot too large to materialize — the
// paper-scale generate→encode path — is written with a bounded record
// window and still publishes atomically with full integrity metadata.
// Reader is the inverse: it iterates records in canonical order (header,
// games, users, groups) from either layout, optionally restricted to one
// section, decoding a fixed chunk of lines at a time. Multi-pass
// algorithms (streaming fsck, the Table 4 extraction) open a section
// several times instead of decoding the snapshot once into memory.
//
// These are the only snapshot code path: the Reader is the file producer
// of the record source (source.go), and every write drains a source into
// a Writer. Byte identity: a sharded directory's concatenated segments
// are byte-identical to the single ".jsonl" file holding the same
// records, and the manifests agree on every section checksum and on
// FileSHA256.

package dataset

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// RecordKind tags one streamed snapshot record.
type RecordKind uint8

const (
	// KindGame is a catalog record.
	KindGame RecordKind = iota + 1
	// KindUser is an account record.
	KindUser
	// KindGroup is a community-group record.
	KindGroup
)

// Record is the streaming iterator's tagged union: exactly one of the
// payload fields is meaningful, selected by Kind. The header line is not
// surfaced as a Record; Reader.CollectedAt carries it.
type Record struct {
	Kind  RecordKind
	Game  GameRecord
	User  UserRecord
	Group GroupRecord
}

// gzipLevel is the deflate level of every ".jsonl.gz" the Writer saves.
// A compression choice only: the uncompressed stream, section CRCs and
// ContentSignature do not depend on it, while the file's FileSHA256 (and
// so its ETag) does, and a file of any level loads. Measured on a
// 100 k-user snapshot (seed 3, 64.9 MB of JSONL, median of 5, 2 vCPU):
//
//	level  compress  inflate  .gz size
//	1      0.38 s    0.20 s   10.29 MB
//	2      0.37 s    0.16 s    9.21 MB
//	3      0.43 s    0.14 s    8.88 MB
//	6      1.08 s    0.14 s    7.91 MB  (gzip.DefaultCompression)
//
// Level 3 compresses 2.5x faster than 6 for 12 % more bytes and 4 % more
// inflate; levels 1–2 would save about 0.06 s once per save and inflate
// 8–37 % slower on every load.
//
// The file is one gzip member written by blockGzip (gzblock.go):
//
//	1f 8b 08 00 00000000 00 ff   header, as gzip.Writer writes it
//	deflate(block 0) 00 00 ff ff  1 MiB from an empty window, sync flush
//	...
//	deflate(block n)              the rest (at most 1 MiB), BFINAL set
//	CRC-32 ISIZE                  over the whole uncompressed stream
//
// Blocks deflate on a pool of one worker per CPU and are written in
// order, so the bytes are the same at any worker count. Same snapshot,
// same host, median of 5:
//
//	writer               GOMAXPROCS=1  GOMAXPROCS=2  .gz size
//	one gzip.Writer      0.331 s       0.335 s       8,878,561
//	1 MiB blocks         0.329 s       0.167 s       8,893,465
//	4 MiB blocks         0.329 s       0.174 s       8,883,114
//	256 KiB blocks       0.336 s       0.167 s       8,942,111
//
// 1 MiB blocks cost 0.17 % in size; inflate is 0.115 s for every row.
const gzipLevel = 3

// writerSections orders the record sections as the container does.
var writerSections = [3]string{sectionGames, sectionUsers, sectionGroups}

// Writer streams one snapshot into path — a ".d" sharded directory or a
// single ".jsonl"/".jsonl.gz" file — without ever holding more than the
// record being written and, for a ".jsonl.gz", the few 1 MiB blocks being
// compressed. Records must arrive in section order (games, then
// users, then groups); a section may be empty. Close finalizes the data,
// builds the manifest from the accumulated checksums, and publishes both
// with the atomic temp→fsync→rename protocol Save documents. On error (or
// if Close is never reached) Abort discards the temporaries, leaving any
// previous snapshot at path untouched.
type Writer struct {
	path        string
	collectedAt int64
	o           options
	sharded     bool
	gzipped     bool

	// Single-file plumbing: records go to body, which is gz for a
	// ".jsonl.gz" and bw for a ".jsonl".
	f    *os.File
	tmp  string
	cw   *countingWriter
	gz   *blockGzip
	bw   *bufio.Writer
	body io.Writer

	// Sharded plumbing.
	tmpDir     string
	seg        *os.File
	segBW      *bufio.Writer
	segCRC     hash.Hash32
	segBytes   int64
	segRecords int
	segIdx     int
	shards     []ShardSum

	// Shared accumulators.
	sha     hash.Hash
	total   int64 // bytes of the (uncompressed, concatenated) stream
	section int   // index into writerSections of the section being written
	crc     [3]canon
	prog    sectionProgress // per-section record counts
	buf     []byte
	err     error
	closed  bool
}

// NewWriter opens a streaming snapshot writer for path, stamping
// collectedAt into the header line. Options: WithShardRecords sets the
// fixed per-segment record count for the sharded layout (ignored for
// single files); WithProgress reports per-section encoded record counts.
func NewWriter(path string, collectedAt int64, opts ...Option) (*Writer, error) {
	o := buildOptions(opts)
	gzipped, sharded, err := snapshotPath(path)
	if err != nil {
		return nil, err
	}
	w := &Writer{
		path:        path,
		collectedAt: collectedAt,
		o:           o,
		sharded:     sharded,
		gzipped:     gzipped,
		sha:         sha256.New(),
		prog:        sectionProgress{fn: o.progress},
	}
	dir := filepath.Dir(path)
	if sharded {
		w.tmpDir, err = os.MkdirTemp(dir, ".tmp-"+filepath.Base(path)+"-")
		if err != nil {
			return nil, fmt.Errorf("dataset: creating temp dir for %s: %w", path, err)
		}
		// The header is its own segment so the concatenation order is
		// manifest order and every byte of the stream is CRC-covered.
		hdr := appendHeaderLine(nil, collectedAt)
		if err := w.writeHeaderSegment(hdr); err != nil {
			w.Abort()
			return nil, err
		}
		return w, nil
	}
	f, err := os.CreateTemp(dir, ".tmp-"+filepath.Base(path)+"-")
	if err != nil {
		return nil, fmt.Errorf("dataset: creating temp for %s: %w", path, err)
	}
	w.f, w.tmp = f, f.Name()
	w.cw = &countingWriter{w: io.MultiWriter(f, w.sha)}
	if gzipped {
		w.gz = newBlockGzip(w.cw)
		w.body = w.gz
	} else {
		w.bw = bufio.NewWriterSize(w.cw, 1<<20)
		w.body = w.bw
	}
	hdr := appendHeaderLine(nil, collectedAt)
	if _, err := w.body.Write(hdr); err != nil {
		w.Abort()
		return nil, fmt.Errorf("dataset: writing %s: %w", path, err)
	}
	w.total += int64(len(hdr))
	return w, nil
}

// writeHeaderSegment writes header.jsonl into the temp directory and
// records its shard sum.
func (w *Writer) writeHeaderSegment(hdr []byte) error {
	name := "header.jsonl"
	f, err := os.Create(filepath.Join(w.tmpDir, name))
	if err != nil {
		return fmt.Errorf("dataset: creating %s segment: %w", name, err)
	}
	if _, err = f.Write(hdr); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("dataset: writing %s segment: %w", name, err)
	}
	w.sha.Write(hdr)
	w.total += int64(len(hdr))
	w.shards = append(w.shards, ShardSum{
		File: name, Section: sectionHeader, Records: 1,
		Bytes: int64(len(hdr)), CRC32C: crc32.Checksum(hdr, castagnoli),
	})
	return nil
}

// shardRecords resolves the per-segment record count.
func (w *Writer) shardRecords() int {
	if w.o.shardRecords > 0 {
		return w.o.shardRecords
	}
	return DefaultShardRecords
}

// WriteGame appends one catalog record. Must precede every user record.
func (w *Writer) WriteGame(g *GameRecord) error {
	return w.write(0, func(b []byte) ([]byte, error) { return appendGameLine(b, g) }, func(c *canon) { c.game(g) })
}

// WriteUser appends one account record. Must precede every group record.
func (w *Writer) WriteUser(u *UserRecord) error {
	return w.write(1, func(b []byte) ([]byte, error) { return appendUserLine(b, u) }, func(c *canon) { c.user(u) })
}

// WriteGroup appends one community-group record.
func (w *Writer) WriteGroup(g *GroupRecord) error {
	return w.write(2, func(b []byte) ([]byte, error) { return appendGroupLine(b, g) }, func(c *canon) { c.group(g) })
}

// writeRecord appends rec to the section its Kind names.
func (w *Writer) writeRecord(rec *Record) error {
	switch rec.Kind {
	case KindGame:
		return w.WriteGame(&rec.Game)
	case KindUser:
		return w.WriteUser(&rec.User)
	default:
		return w.WriteGroup(&rec.Group)
	}
}

func (w *Writer) write(sec int, enc func([]byte) ([]byte, error), sum func(*canon)) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return w.fail(fmt.Errorf("dataset: %s: write after Close", w.path))
	}
	if sec < w.section {
		return w.fail(fmt.Errorf("dataset: %s: %s record after the %s section started (sections must arrive in games, users, groups order)",
			w.path, writerSections[sec], writerSections[w.section]))
	}
	if sec > w.section {
		if err := w.finishSegment(); err != nil {
			return w.fail(err)
		}
		w.section = sec
		w.segIdx = 0
	}
	b, err := enc(w.buf[:0])
	w.buf = b
	if err != nil {
		return w.fail(fmt.Errorf("dataset: encoding %s: %w", w.path, err))
	}
	sum(&w.crc[sec])
	w.prog.add(sec)
	if !w.sharded {
		// The single-file sha is fed post-compression through the counting
		// writer.
		if _, err := w.body.Write(b); err != nil {
			return w.fail(fmt.Errorf("dataset: writing %s: %w", w.path, err))
		}
		return nil
	}
	w.sha.Write(b)
	w.total += int64(len(b))
	if w.seg == nil {
		if err := w.openSegment(); err != nil {
			return w.fail(err)
		}
	}
	if _, err := w.segBW.Write(b); err != nil {
		return w.fail(fmt.Errorf("dataset: writing segment %s: %w", w.segName(), err))
	}
	w.segCRC.Write(b)
	w.segBytes += int64(len(b))
	w.segRecords++
	if w.segRecords >= w.shardRecords() {
		if err := w.finishSegment(); err != nil {
			return w.fail(err)
		}
	}
	return nil
}

func (w *Writer) segName() string { return shardFileName(writerSections[w.section], w.segIdx) }

func (w *Writer) openSegment() error {
	f, err := os.Create(filepath.Join(w.tmpDir, w.segName()))
	if err != nil {
		return fmt.Errorf("dataset: creating segment %s: %w", w.segName(), err)
	}
	w.seg = f
	w.segBW = bufio.NewWriterSize(f, 1<<20)
	w.segCRC = crc32.New(castagnoli)
	w.segBytes, w.segRecords = 0, 0
	return nil
}

// finishSegment closes the open segment (if any), records its shard sum,
// and resets the per-segment state for the next one. Called on roll-over,
// section advance, and Close.
func (w *Writer) finishSegment() error {
	if w.seg == nil {
		return nil
	}
	name := w.segName()
	err := w.segBW.Flush()
	if err == nil {
		err = w.seg.Sync()
	}
	if cerr := w.seg.Close(); err == nil {
		err = cerr
	}
	w.seg, w.segBW = nil, nil
	if err != nil {
		return fmt.Errorf("dataset: finishing segment %s: %w", name, err)
	}
	w.shards = append(w.shards, ShardSum{
		File: name, Section: writerSections[w.section], Records: w.segRecords,
		Bytes: w.segBytes, CRC32C: w.segCRC.Sum32(),
	})
	w.segIdx++
	return nil
}

func (w *Writer) fail(err error) error {
	if w.err == nil {
		w.err = err
	}
	return w.err
}

// Abort discards the writer's temporaries. Safe to call at any point,
// including after Close; a successful Close makes it a no-op.
func (w *Writer) Abort() {
	if w.closed && w.err == nil {
		return
	}
	if w.seg != nil {
		w.seg.Close()
		w.seg = nil
	}
	if w.gz != nil {
		w.gz.abort()
	}
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	if w.tmpDir != "" {
		os.RemoveAll(w.tmpDir)
		w.tmpDir = ""
	}
	if w.tmp != "" {
		os.Remove(w.tmp)
		w.tmp = ""
	}
	w.closed = true
	if w.err == nil {
		w.err = fmt.Errorf("dataset: %s: writer aborted", w.path)
	}
}

// manifest assembles the manifest for the written stream.
func (w *Writer) manifest() *Manifest {
	m := &Manifest{
		FormatVersion: SnapshotFormatVersion,
		Encoding:      encJSONL,
		Compressed:    w.gzipped,
		CollectedAt:   w.collectedAt,
		FileBytes:     w.total,
		FileSHA256:    hex.EncodeToString(w.sha.Sum(nil)),
		Sections: map[string]SectionSum{
			sectionGames:  {Records: w.prog.counts[0], CRC32C: w.crc[0].sum()},
			sectionUsers:  {Records: w.prog.counts[1], CRC32C: w.crc[1].sum()},
			sectionGroups: {Records: w.prog.counts[2], CRC32C: w.crc[2].sum()},
		},
	}
	if w.sharded {
		m.FormatVersion = SnapshotShardFormatVersion
		m.ShardRecords = w.shardRecords()
		m.Shards = w.shards
	}
	return m
}

// Close finishes the stream and publishes data + manifest atomically,
// returning the manifest it wrote. For single files FileBytes/FileSHA256
// cover the on-disk (post-compression) bytes; for sharded directories
// they cover the concatenated uncompressed stream, which equals the
// single-file equivalent's values.
func (w *Writer) Close() (*Manifest, error) {
	if w.err != nil {
		w.Abort()
		return nil, w.err
	}
	if w.closed {
		return nil, fmt.Errorf("dataset: %s: Close called twice", w.path)
	}
	if err := w.closeData(); err != nil {
		w.fail(err)
		w.Abort()
		return nil, err
	}
	w.prog.end(len(writerSections))
	man := w.manifest()
	if err := w.publish(man); err != nil {
		w.fail(err)
		w.Abort()
		return nil, err
	}
	w.closed = true
	return man, nil
}

// closeData finalizes the temp payload (single file: flush + sync; dir:
// close the open segment and sync the directory).
func (w *Writer) closeData() error {
	if w.sharded {
		if err := w.finishSegment(); err != nil {
			return err
		}
		return syncDir(w.tmpDir)
	}
	// For single files the sha covers post-compression bytes, which only
	// exist once the gzip stream is closed; w.total tracked the
	// uncompressed stream, so recompute from the counting writer.
	if w.gz != nil {
		if err := w.gz.Close(); err != nil {
			return fmt.Errorf("dataset: writing %s: %w", w.path, err)
		}
	} else if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("dataset: writing %s: %w", w.path, err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("dataset: fsync %s: %w", w.path, err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("dataset: closing temp for %s: %w", w.path, err)
	}
	w.f = nil
	w.total = w.cw.n
	return nil
}

// publish runs the atomic publication protocol for either layout. For
// the directory layout the old directory (if any) is renamed aside before
// the new one renames in; the window where neither is at path is the cost
// of POSIX's lack of an atomic directory swap and is documented in
// DESIGN.md — a crash there leaves the old snapshot intact under a
// ".tmp-*-old" name, never a half-written mixture at path.
func (w *Writer) publish(man *Manifest) (err error) {
	dir := filepath.Dir(w.path)
	if err = saveCrash("temp-written"); err != nil {
		return err
	}
	manTmp, err := writeManifestTemp(dir, man)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			os.Remove(manTmp)
		}
	}()
	if err = removeStaleManifest(w.path); err != nil {
		return err
	}
	if err = syncDir(dir); err != nil {
		return err
	}
	if err = saveCrash("manifest-retired"); err != nil {
		return err
	}
	if w.sharded {
		old := ""
		if _, serr := os.Stat(w.path); serr == nil {
			old = w.tmpDir + "-old"
			if err = os.Rename(w.path, old); err != nil {
				return fmt.Errorf("dataset: retiring previous %s: %w", w.path, err)
			}
		}
		if err = os.Rename(w.tmpDir, w.path); err != nil {
			return fmt.Errorf("dataset: publishing %s: %w", w.path, err)
		}
		w.tmpDir = ""
		if old != "" {
			if err = os.RemoveAll(old); err != nil {
				return fmt.Errorf("dataset: removing previous %s: %w", w.path, err)
			}
		}
	} else {
		if err = os.Rename(w.tmp, w.path); err != nil {
			return fmt.Errorf("dataset: publishing %s: %w", w.path, err)
		}
		w.tmp = ""
	}
	if err = saveCrash("data-renamed"); err != nil {
		return err
	}
	if err = os.Rename(manTmp, ManifestPath(w.path)); err != nil {
		return fmt.Errorf("dataset: publishing manifest for %s: %w", w.path, err)
	}
	return syncDir(dir)
}

// --- Reader -------------------------------------------------------------

// Reader iterates a snapshot's records in canonical order from either
// layout, decoding a fixed chunk of lines at a time so memory stays
// bounded by the decode window, not the snapshot. Open with OpenReader
// for every section or OpenSection for one; sharded directories then
// read only that section's segments, while single files scan the whole
// container and skip foreign lines with a cheap kind sniff (no decode).
//
// When a sharded directory carries a manifest, every fully read segment
// is verified against its recorded byte count and CRC-32C; a mismatch
// surfaces as an error from Next naming the damaged segment.
//
// A decode or read error first yields every record of its chunk that
// precedes the failing line, then surfaces from Next; records read so
// far are thus the file's longest readable prefix, which fsck reports.
//
// Slice lifetime: the lines of a chunk are copied into one byte arena
// that the Reader reuses for every chunk, but no decoded value aliases
// it. A record's lists (Friends, Games, Groups, Members, Genres,
// Achievements) and names are carved from slabs allocated for its chunk
// alone and never reused, so a consumer may keep any record Next returns
// for as long as it likes (keeping one keeps its chunk's slabs alive).
// Each list has cap == len: appending to one reallocates rather than
// overwriting the next record's list.
type Reader struct {
	path    string
	sharded bool
	gzipped bool
	filter  byte // 0 = every section; else 'g'/'u'/'p'

	collectedAt int64
	man         *Manifest
	segs        []segmentInfo
	segAt       int // index of the segment currently open

	f       *os.File
	gz      *gzip.Reader
	br      *bufio.Reader
	curPath string
	lineNo  int
	segCRC  hash.Hash32
	segN    int64
	sha     hash.Hash // concatenated-stream hash (sharded, unfiltered)

	pending    []decodedLine
	pi         int
	lines      []rawLine
	arena      []byte // this chunk's kept lines, back to back
	dec        chunkDecoder
	eof        bool
	err        error
	verifySegs bool
	// deferredErr is a decode or read error whose chunk yielded some
	// records; those stay consumable and the error surfaces once they
	// drain.
	deferredErr error
	prog        sectionProgress
}

// OpenReader opens a streaming reader over every record in the snapshot
// at path (single JSONL file or sharded directory). The header is
// consumed internally — CollectedAt is available once the first record
// (or end of stream) has been reached; for sharded layouts it is read
// eagerly at open. Lines are read in place from the read buffer and
// only the decoded chunk's lines are copied, into an arena the reader
// reuses; the records Next returns never alias it (see Reader for their
// slices' lifetime). Options: WithProgress reports per-section decoded
// record counts.
func OpenReader(path string, opts ...Option) (*Reader, error) {
	return openReader(path, "", true, buildOptions(opts))
}

// Exported section names for OpenSection.
const (
	SectionGames  = sectionGames
	SectionUsers  = sectionUsers
	SectionGroups = sectionGroups
)

// OpenSection opens a streaming reader over one section ("games",
// "users" or "groups") of the snapshot at path. Multi-pass algorithms
// call this repeatedly; for sharded directories each pass touches only
// that section's segments. Options: WithProgress reports the section's
// decoded record count.
func OpenSection(path, section string, opts ...Option) (*Reader, error) {
	if _, err := sectionKind(section); err != nil {
		return nil, err
	}
	return openReader(path, section, true, buildOptions(opts))
}

// openReader opens a reader over one section, or every section when
// section is "". With verify off — fsck's accumulate-everything mode — a
// corrupt manifest, a too-new format version or a per-segment checksum
// mismatch does not stop the read: fsck's structural pass has already
// recorded them, and it still wants every decodable record.
func openReader(path, section string, verify bool, o options) (*Reader, error) {
	gzipped, sharded, err := snapshotPath(path)
	if err != nil {
		return nil, err
	}
	r := &Reader{path: path, sharded: sharded, gzipped: gzipped}
	r.prog.fn = o.progress
	if kind, _ := sectionKind(section); kind != 0 {
		r.filter = "gup"[kind-1] // the decoder's line kind for the section
		if fn := o.progress; fn != nil {
			r.prog.fn = func(s string, records int) {
				if s == section {
					fn(s, records)
				}
			}
		}
	}
	if !sharded {
		if err := r.openFile(path, gzipped); err != nil {
			return nil, err
		}
		return r, nil
	}
	man, err := checkedManifest(path, SnapshotShardFormatVersion)
	if err != nil {
		if verify {
			return nil, err
		}
		man = nil // fsck recorded the manifest violation; scan by directory
	}
	r.man = man
	r.verifySegs = verify
	segs, err := shardSegments(path, man)
	if err != nil {
		return nil, err
	}
	// Keep the header plus the wanted sections. An unfiltered read hashes
	// the concatenated stream for whole-snapshot verification.
	for _, seg := range segs {
		if section == "" || seg.section == sectionHeader || seg.section == section {
			r.segs = append(r.segs, seg)
		}
	}
	if section == "" {
		r.sha = sha256.New()
	}
	r.segAt = -1
	// Prime the header eagerly so CollectedAt is valid right after open.
	if len(r.segs) > 0 && r.segs[0].section == sectionHeader {
		if err := r.fill(); err != nil {
			r.Close()
			return nil, err
		}
		for r.pi < len(r.pending) && r.pending[r.pi].kind == 'h' {
			r.collectedAt = r.pending[r.pi].collectedAt
			r.pi++
		}
	}
	return r, nil
}

func (r *Reader) openFile(path string, gzipped bool) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("dataset: opening %s: %w", path, err)
	}
	r.f, r.curPath, r.lineNo = f, path, 0
	if gzipped {
		gz, err := gzip.NewReader(f)
		if err != nil {
			f.Close()
			return fmt.Errorf("dataset: %s: gzip header: %w", path, err)
		}
		r.gz = gz
		r.br = bufio.NewReaderSize(gz, 1<<20)
	} else {
		r.br = bufio.NewReaderSize(f, 1<<20)
	}
	return nil
}

// CollectedAt returns the header timestamp. For sharded layouts it is
// valid immediately after open; for single files once the first record
// has been read (the header is the first line of the stream).
func (r *Reader) CollectedAt() int64 { return r.collectedAt }

// Manifest returns the sharded layout's sidecar manifest, nil for single
// files (use ReadManifest) or manifest-less directories.
func (r *Reader) Manifest() *Manifest { return r.man }

// FileSHA256 returns the hex SHA-256 of the concatenated stream read so
// far. Meaningful only after an unfiltered sharded read reaches EOF,
// where it must equal the manifest's FileSHA256; returns "" otherwise.
func (r *Reader) FileSHA256() string {
	if r.sha == nil {
		return ""
	}
	return hex.EncodeToString(r.sha.Sum(nil))
}

// Close releases the reader's file handles. Safe to call twice.
func (r *Reader) Close() error {
	var err error
	if r.gz != nil {
		err = r.gz.Close()
		r.gz = nil
	}
	if r.f != nil {
		if cerr := r.f.Close(); err == nil {
			err = cerr
		}
		r.f = nil
	}
	return err
}

// Next decodes the next record into rec, returning false at the end of
// the stream. On decode or integrity errors it returns false with the
// error; rec is unspecified. The error names the file (segment, for
// sharded layouts) and line that failed, matching Load's diagnostics.
func (r *Reader) Next(rec *Record) (bool, error) {
	if r.err != nil {
		return false, r.err
	}
	for {
		for r.pi < len(r.pending) {
			d := &r.pending[r.pi]
			r.pi++
			if d.kind == 'h' {
				r.collectedAt = d.collectedAt
				continue
			}
			if r.filter != 0 && r.filter != d.kind {
				continue
			}
			switch d.kind {
			case 'g':
				rec.Kind, rec.Game = KindGame, d.game
			case 'u':
				rec.Kind, rec.User = KindUser, d.user
			case 'p':
				rec.Kind, rec.Group = KindGroup, d.group
			}
			r.prog.add(int(rec.Kind) - 1) // kinds number writerSections from 1
			return true, nil
		}
		if r.eof {
			r.prog.end(len(writerSections))
			if r.deferredErr != nil {
				r.err = r.deferredErr
				return false, r.err
			}
			return false, nil
		}
		if err := r.fill(); err != nil {
			r.prog.end(len(writerSections))
			r.err = err
			return false, err
		}
	}
}

// readAll collects every record r yields into a Snapshot whose sections
// start with room for hint records (games, users, groups; a wrong hint
// only costs growth). On error the snapshot holds every record read
// before it, so fsck can still describe a partially readable file.
func readAll(r *Reader, hint [3]int) (*Snapshot, error) {
	s := &Snapshot{Games: withCap[GameRecord](hint[0]), Users: withCap[UserRecord](hint[1]), Groups: withCap[GroupRecord](hint[2])}
	err := forEach(r, s.add)
	s.CollectedAt = r.CollectedAt()
	return s, err
}

// withCap returns an empty slice with capacity n, or nil for n == 0, so
// an empty section collects to nil as it always has.
func withCap[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, 0, n)
}

// sectionProgress counts one stream's records per section (indexed like
// writerSections) and reports them to fn, when set: every jsonlChunk
// records, and each section's final count once the stream moves past it.
type sectionProgress struct {
	fn     ProgressFunc
	counts [3]int
	at     int // sections before at have reported their final count
}

func (p *sectionProgress) add(sec int) {
	p.end(sec)
	p.counts[sec]++
	if p.fn != nil && p.counts[sec]%jsonlChunk == 0 {
		p.fn(writerSections[sec], p.counts[sec])
	}
}

// end reports the final count of every section before sec not yet
// reported.
func (p *sectionProgress) end(sec int) {
	for ; p.at < sec; p.at++ {
		if p.fn != nil {
			p.fn(writerSections[p.at], p.counts[p.at])
		}
	}
}

// kindSniff classifies a canonical-layout line by its prefix without
// decoding. Returns 0 when the line is not in canonical layout (the
// caller must fully decode it to learn its kind).
func kindSniff(trimmed []byte) byte {
	const p = `{"kind":"`
	if len(trimmed) < len(p)+1 || string(trimmed[:len(p)]) != p {
		return 0
	}
	rest := trimmed[len(p):]
	switch {
	case bytes.HasPrefix(rest, []byte(`header"`)):
		return 'h'
	case bytes.HasPrefix(rest, []byte(`game"`)):
		return 'g'
	case bytes.HasPrefix(rest, []byte(`group"`)):
		return 'p'
	case bytes.HasPrefix(rest, []byte(`user"`)):
		return 'u'
	}
	return 0
}

// fill reads the next chunk of lines into the line arena and decodes it
// into r.pending.
func (r *Reader) fill() error {
	r.pending, r.pi = r.pending[:0], 0
	r.lines = r.lines[:0]
	r.arena = r.arena[:0]
	for len(r.lines) < jsonlChunk {
		if r.br == nil {
			ok, err := r.advanceSegment()
			if err != nil {
				return err
			}
			if !ok {
				r.eof = true
				break
			}
		}
		r.lineNo++
		raw, err := r.readLine()
		if err != nil && err != io.EOF {
			// Decode the lines already read; the error surfaces after them.
			r.deferredErr = fmt.Errorf("dataset: decoding %s: line %d: %w", r.curPath, r.lineNo, err)
			r.eof = true
			break
		}
		if trimmed := bytes.TrimSpace(raw); len(trimmed) != 0 {
			// Filtered single-file scans skip foreign canonical lines
			// here, before any copy or decode; header lines always pass
			// so CollectedAt is picked up.
			k := kindSniff(trimmed)
			if r.filter == 0 || k == 0 || k == 'h' || k == r.filter {
				r.keepLine(trimmed)
			}
		}
		if err == io.EOF {
			if ferr := r.finishSegmentRead(); ferr != nil {
				return ferr
			}
			if !r.sharded {
				r.eof = true
				break
			}
		}
	}
	if len(r.lines) == 0 {
		return nil
	}
	dc := r.dec.decode(r.lines, r.pending)
	r.pending = dc.recs
	if dc.err != nil {
		r.deferredErr = fmt.Errorf("dataset: decoding %s: line %d: %w", r.curPath, dc.errLine, dc.err)
		r.eof = true
	}
	return nil
}

// readLine returns the next raw line, folded into the segment CRC and
// stream hash. The slice is bufio's own buffer, valid until the next
// read, except for a line longer than that buffer, which is assembled at
// the end of the line arena.
func (r *Reader) readLine() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		at := len(r.arena)
		for err == bufio.ErrBufferFull {
			r.sum(line)
			r.arena = append(r.arena, line...)
			line, err = r.br.ReadSlice('\n')
		}
		r.arena = append(r.arena, line...)
		// keepLine's copy moves the line down to at, where it already is.
		line, r.arena = r.arena[at:], r.arena[:at]
	}
	if err == nil || err == io.EOF {
		r.sum(line)
	}
	return line, err
}

// sum folds raw stream bytes into the open segment's CRC and the
// concatenated-stream hash, when those are being checked.
func (r *Reader) sum(b []byte) {
	if r.segCRC != nil {
		r.segCRC.Write(b)
		r.segN += int64(len(b))
	}
	if r.sha != nil {
		r.sha.Write(b)
	}
}

// keepLine copies a trimmed line into the line arena for this chunk's
// decode. The arena is reused chunk after chunk; decoded records never
// alias it.
func (r *Reader) keepLine(trimmed []byte) {
	at := len(r.arena)
	r.arena = append(r.arena, trimmed...)
	r.lines = append(r.lines, rawLine{no: r.lineNo, b: r.arena[at:len(r.arena):len(r.arena)]})
}

// advanceSegment opens the next segment of a sharded read; ok=false at
// the end of the segment list (or immediately for single files, whose
// only "segment" is opened at construction).
func (r *Reader) advanceSegment() (bool, error) {
	if !r.sharded {
		return false, nil
	}
	r.segAt++
	if r.segAt >= len(r.segs) {
		return false, nil
	}
	seg := r.segs[r.segAt]
	if err := r.openFile(filepath.Join(r.path, seg.file), false); err != nil {
		return false, err
	}
	if seg.sum != nil && r.verifySegs {
		r.segCRC = crc32.New(castagnoli)
		r.segN = 0
	}
	return true, nil
}

// finishSegmentRead closes the finished segment and, when the manifest
// recorded its shape, verifies byte count and CRC-32C.
func (r *Reader) finishSegmentRead() error {
	if r.br == nil {
		return nil
	}
	cerr := r.Close()
	r.br = nil
	if cerr != nil {
		return fmt.Errorf("dataset: closing %s: %w", r.curPath, cerr)
	}
	if r.segCRC != nil {
		sum := r.segs[r.segAt].sum
		if r.segN != sum.Bytes {
			return fmt.Errorf("dataset: %s: segment %s is %d bytes, manifest records %d (truncated or partially overwritten)",
				r.path, sum.File, r.segN, sum.Bytes)
		}
		if got := r.segCRC.Sum32(); got != sum.CRC32C {
			return fmt.Errorf("dataset: %s: segment %s checksum mismatch (file %08x, manifest %08x): on-disk corruption",
				r.path, sum.File, got, sum.CRC32C)
		}
		r.segCRC = nil
	}
	return nil
}
