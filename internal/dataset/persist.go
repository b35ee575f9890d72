package dataset

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"syscall"
)

// encJSONL is the container encoding every manifest records: JSONL is the
// only snapshot container, as a single file or a sharded directory.
const encJSONL = "jsonl"

// CheckSnapshotPath reports whether path names a snapshot this package
// can read or write, judging by the path alone (the file need not
// exist): a single ".jsonl" or ".jsonl.gz" file, or the sharded
// directory layout by its ".d" suffix. CLIs use it to reject a typo'd
// -snapshot flag before any work happens; the error names the accepted
// forms, and a path that points at a segment file inside a sharded
// directory fails with ErrShardSegment (the caller wants the directory).
func CheckSnapshotPath(path string) error {
	_, _, err := snapshotPath(path)
	return err
}

// saveCrashHook, when non-nil, is consulted at the named stages of the
// Writer's publish protocol (Save included); returning an error aborts the
// save there. It exists so the crash-chaos tests can prove each
// intermediate on-disk state is safe. Stages: "temp-written" (payload
// durable, nothing published), "manifest-retired" (old sidecar gone, old
// data still in place), "data-renamed" (new data published, sidecar not
// yet).
var saveCrashHook func(stage string) error

func saveCrash(stage string) error {
	if h := saveCrashHook; h != nil {
		return h(stage)
	}
	return nil
}

// countingWriter counts the bytes passed through to w.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Save writes the snapshot to path, durably and atomically, by draining
// it into NewWriter: a ".jsonl" or ".jsonl.gz" file (one record per line
// with a type tag, matching the "full dataset available for download"
// spirit of §3.1) or a ".d" sharded directory.
//
// The write protocol never exposes a torn file: the payload goes to a
// temp file in the destination directory, is fsynced, and only then
// renamed over path; the parent directory is fsynced so the rename
// itself is durable. A sidecar manifest (<path>.manifest.json) recording
// the format version, per-section record counts and CRC-32C checksums,
// and the whole-file SHA-256 is published after the data file. A crash at
// any instant leaves either the old snapshot+manifest, the old snapshot
// alone, the new snapshot alone, or the new pair — never a mix that
// fails verification, and never a half-written snapshot. Stale ".tmp-*"
// files from a crashed save are inert and may be deleted freely.
//
// Options: WithShardRecords sets the segment size of a ".d" layout;
// WithProgress reports per-section record counts as they are encoded.
// No option changes the bytes of a single-file snapshot.
func (s *Snapshot) Save(path string, opts ...Option) error {
	return writeSource(path, s.CollectedAt, s.source, opts)
}

// syncDir fsyncs a directory so a just-completed rename survives power
// loss. Filesystems that cannot sync directories report EINVAL/ENOTSUP;
// the rename is still atomic there, so that is tolerated.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("dataset: opening dir %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil &&
		!errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return fmt.Errorf("dataset: fsync dir %s: %w", dir, err)
	}
	return nil
}

// Load reads a snapshot written by Save by collecting every record from
// OpenReader. When the sidecar manifest is present the snapshot is
// verified against it — format version, the raw bytes (a single file's
// whole-file hash up front; a directory's per-segment checksums while
// streaming), then the decoded section counts and checksums — and damage
// is reported localized to the failing section ("games section checksum
// mismatch") or segment rather than as a bare decode error. Snapshots
// without a manifest (pre-manifest files, or a crash that published data
// before its sidecar) load unverified.
//
// Once a single file's raw bytes have verified, the manifest's section
// counts presize the snapshot's record slices. Each record's lists and
// names share one allocation with the rest of its decode chunk (see
// Reader), so a load allocates per chunk, not per record.
//
// Options: WithProgress reports per-section record counts as they decode.
func Load(path string, opts ...Option) (*Snapshot, error) {
	_, sharded, err := snapshotPath(path)
	if err != nil {
		return nil, err
	}
	var man *Manifest
	var hashErr error
	if !sharded {
		if man, err = checkedManifest(path, SnapshotFormatVersion); err != nil {
			return nil, err
		}
		if man != nil {
			// Remember raw-byte damage but prefer reporting it per section
			// below: "games section checksum mismatch" localizes the rot,
			// "file hash mismatch" merely confirms it.
			hashErr = man.VerifyFile(path)
		}
	}
	var hint [3]int
	if man != nil && hashErr == nil {
		hint = man.recordHints()
	}
	r, err := openReader(path, "", true, buildOptions(opts))
	if err != nil {
		return nil, err
	}
	defer r.Close()
	s, err := readAll(r, hint)
	if err != nil {
		if hashErr != nil {
			return nil, fmt.Errorf("%w (raw-byte check also failed: %v)", err, hashErr)
		}
		return nil, err
	}
	if sharded {
		man = r.Manifest()
		if man != nil && r.FileSHA256() != man.FileSHA256 {
			hashErr = fmt.Errorf("dataset: %s stream hash mismatch (got %s, manifest %s): on-disk corruption",
				path, r.FileSHA256(), man.FileSHA256)
		}
	}
	if man != nil {
		if v := man.verifySections(s.CollectedAt, s.sectionSums()); len(v) > 0 {
			return nil, fmt.Errorf("dataset: %s: %s", path, v[0].Detail)
		}
	}
	if hashErr != nil {
		return nil, hashErr
	}
	return s, nil
}

// checkedManifest reads path's sidecar manifest and refuses one whose
// format version is newer than maxVersion rather than guessing.
func checkedManifest(path string, maxVersion int) (*Manifest, error) {
	man, err := ReadManifest(path)
	if err != nil {
		return nil, err
	}
	if man != nil && man.FormatVersion > maxVersion {
		return nil, fmt.Errorf("dataset: %s: manifest format version %d is newer than this build supports (%d)",
			path, man.FormatVersion, maxVersion)
	}
	return man, nil
}

// jsonlLine is the tagged union for the JSONL export.
type jsonlLine struct {
	Kind        string       `json:"kind"`
	CollectedAt int64        `json:"collected_at,omitempty"`
	User        *UserRecord  `json:"user,omitempty"`
	Game        *GameRecord  `json:"game,omitempty"`
	Group       *GroupRecord `json:"group,omitempty"`
}

// jsonlChunk is the fixed number of lines the Reader decodes at a time,
// and the record interval at which the Writer and Reader report progress.
const jsonlChunk = 512

// rawLine is one non-blank, trimmed input line with its 1-based file
// line number (blank lines are skipped but still numbered). b points into
// the Reader's line arena and is valid only until the next chunk.
type rawLine struct {
	no int
	b  []byte
}

type decodedChunk struct {
	recs []decodedLine
	// err, if non-nil, occurred at line errLine; recs holds everything
	// decoded before it.
	err     error
	errLine int
}

// decode parses one batch of lines into recs[:0], then carves the
// fast-path records' lists and names from slabs of this chunk alone, so
// none of them aliases a line.
func (d *chunkDecoder) decode(lines []rawLine, recs []decodedLine) decodedChunk {
	out := decodedChunk{recs: recs[:0]}
	for _, ln := range lines {
		rec, err := d.decodeLine(ln.b)
		if err != nil {
			out.err, out.errLine = err, ln.no
			break
		}
		out.recs = append(out.recs, rec)
	}
	d.carve(out.recs)
	return out
}

// into copies a game, user or group line into rec; false for a header.
func (d *decodedLine) into(rec *Record) bool {
	switch d.kind {
	case 'g':
		rec.Kind, rec.Game = KindGame, d.game
	case 'u':
		rec.Kind, rec.User = KindUser, d.user
	case 'p':
		rec.Kind, rec.Group = KindGroup, d.group
	default:
		return false
	}
	return true
}

// AppendRecordLine appends rec's line, newline included, as a snapshot
// file holds it. Like Save, it fails only on a NaN or infinite percent.
func AppendRecordLine(b []byte, rec *Record) ([]byte, error) {
	switch rec.Kind {
	case KindGame:
		return appendGameLine(b, &rec.Game)
	case KindUser:
		return appendUserLine(b, &rec.User)
	case KindGroup:
		return appendGroupLine(b, &rec.Group)
	}
	return b, fmt.Errorf("dataset: record kind %d has no snapshot line", rec.Kind)
}

// LineDecoder decodes snapshot lines one at a time with the Reader's
// codec. A decoded record owns its lists and names; vocabulary strings
// are interned across calls. The zero value is ready to use.
type LineDecoder struct {
	d   chunkDecoder
	one [1]decodedLine
}

// Decode parses one game, user or group line into rec, with the errors
// Load reports for it. A header line is an error.
func (ld *LineDecoder) Decode(line []byte, rec *Record) error {
	c := ld.d.decode([]rawLine{{no: 1, b: bytes.TrimSpace(line)}}, ld.one[:0])
	if c.err != nil {
		return c.err
	}
	if !c.recs[0].into(rec) {
		return errors.New("dataset: a header line is not a record")
	}
	return nil
}

// decodeLine parses one trimmed line: the strict fast path for the
// canonical layout, encoding/json for anything else, with identical
// errors either way.
func (d *chunkDecoder) decodeLine(b []byte) (decodedLine, error) {
	var rec decodedLine
	if decodeLineFast(b, &rec, d) {
		return rec, nil
	}
	var line jsonlLine
	if err := json.Unmarshal(b, &line); err != nil {
		return rec, err
	}
	switch line.Kind {
	case "header":
		return decodedLine{kind: 'h', collectedAt: line.CollectedAt}, nil
	case "game":
		if line.Game != nil {
			return decodedLine{kind: 'g', game: *line.Game}, nil
		}
	case "user":
		if line.User != nil {
			return decodedLine{kind: 'u', user: *line.User}, nil
		}
	case "group":
		if line.Group != nil {
			return decodedLine{kind: 'p', group: *line.Group}, nil
		}
	default:
		return rec, fmt.Errorf("unknown record kind %q", line.Kind)
	}
	return rec, fmt.Errorf("%s record without payload", line.Kind)
}
