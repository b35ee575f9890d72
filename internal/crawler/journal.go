// Journaled checkpoints. The paper's phase 2 ran for six months; a crawl
// at that scale must survive process death at any instant without losing
// or duplicating work. The journal is append-only: every completed unit
// of work (a detailed user, a catalog entry, a game's achievements, a
// categorized group, a phase-completion marker) is one length-prefixed,
// CRC-guarded record appended to the active segment; its payload is a
// kind byte and the record's snapshot JSONL line, in the dataset codec.
// A flush touches exactly one segment; segments rotate at a size
// threshold; replay tolerates a crash-truncated tail record by truncating
// it away and resuming the append from there. Compaction seals the
// replayed state into a base that is itself a snapshot.

package crawler

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"steamstudy/internal/dataset"
)

// Record kinds, one per resumable unit of crawl work.
const (
	kindUser      uint8 = 1 // phase 2: one fully detailed account
	kindGame      uint8 = 2 // phase 3: one catalog entry
	kindAch       uint8 = 3 // phase 4: one game's achievement list
	kindGroup     uint8 = 4 // phase 5: one categorized group
	kindPhaseDone uint8 = 5 // a phase completed
)

// journalRecord is one unit of journaled work: a phase marker, or a
// record stored as its snapshot line. A kindAch line is a game carrying
// only AppID and Achievements (possibly empty).
type journalRecord struct {
	Kind  uint8
	Phase uint8          // kindPhaseDone: which phase finished
	Line  dataset.Record // every other kind
}

// crawlState is the result of replaying a journal: everything a resumed
// crawl can skip re-fetching. The index maps make replay idempotent: a
// unit of work journaled twice (a crash can land between the append
// hitting disk and the in-memory ack, and the dead process's successor
// may legitimately redo in-flight work) replaces its earlier record
// instead of appearing twice, so resume never double-counts a user, game
// or group. The last record wins — it is the younger observation.
type crawlState struct {
	users     []dataset.UserRecord
	userIdx   map[uint64]int
	games     []dataset.GameRecord
	gameIdx   map[uint32]int
	groups    []dataset.GroupRecord
	groupIdx  map[uint64]int
	ach       map[uint32][]dataset.AchievementRecord
	achDone   map[uint32]bool
	phaseDone [6]bool
}

func newCrawlState() *crawlState {
	return &crawlState{
		userIdx:  make(map[uint64]int),
		gameIdx:  make(map[uint32]int),
		groupIdx: make(map[uint64]int),
		ach:      make(map[uint32][]dataset.AchievementRecord),
		achDone:  make(map[uint32]bool),
	}
}

func (st *crawlState) apply(rec *journalRecord) {
	l := &rec.Line
	switch rec.Kind {
	case kindUser:
		upsert(&st.users, st.userIdx, l.User.SteamID, l.User)
	case kindGame:
		upsert(&st.games, st.gameIdx, l.Game.AppID, l.Game)
	case kindAch:
		st.ach[l.Game.AppID] = l.Game.Achievements
		st.achDone[l.Game.AppID] = true
	case kindGroup:
		upsert(&st.groups, st.groupIdx, l.Group.GID, l.Group)
	case kindPhaseDone:
		if int(rec.Phase) < len(st.phaseDone) {
			st.phaseDone[rec.Phase] = true
		}
	}
}

// upsert replaces the record of key k in *s, or appends v as a new key.
func upsert[K comparable, V any](s *[]V, idx map[K]int, k K, v V) {
	if i, ok := idx[k]; ok {
		(*s)[i] = v
		return
	}
	idx[k] = len(*s)
	*s = append(*s, v)
}

// snapshot assembles the replayed state into a dataset snapshot: games
// get their journaled achievement sets attached, and every section is
// put in canonical ID order — the same shape a completed Run produces.
func (st *crawlState) snapshot(collectedAt int64) *dataset.Snapshot {
	snap := &dataset.Snapshot{
		CollectedAt: collectedAt,
		Users:       st.users,
		Games:       st.games,
		Groups:      st.groups,
	}
	st.attachAch(snap.Games)
	sortSnapshot(snap)
	return snap
}

// attachAch gives each game its journaled achievement set.
func (st *crawlState) attachAch(games []dataset.GameRecord) {
	for i := range games {
		if ach, ok := st.ach[games[i].AppID]; ok {
			games[i].Achievements = ach
		}
	}
}

const (
	segPrefix = "journal-"
	segSuffix = ".jseg"
	// baseMetaName is the compacted base's sidecar (see baseMeta); the
	// base itself is basePrefix + its last sequence + ".jsonl.gz".
	baseMetaName = "journal-base.json"
	basePrefix   = "journal-base-"
	// legacyBaseName and legacySegSuffix mark a journal of gob records.
	legacyBaseName  = "journal-base.gob"
	legacySegSuffix = ".seg"
	// recHeaderSize prefixes every record: uint32 payload length +
	// uint32 CRC-32 (IEEE) of the payload, both big-endian.
	recHeaderSize = 8
	// defaultSegmentBytes rotates segments at 4 MiB.
	defaultSegmentBytes = 4 << 20

	// segMagic opens the 16-byte header of every segment an epoch-bearing
	// (fenced) writer creates: magic, uint32 header layout version and
	// uint64 writer epoch, big-endian. Solo (epoch-zero) segments have none.
	segMagic         = "SEGF"
	segHeaderVersion = 1
	segHeaderSize    = 16
)

// journalCrashHook, when non-nil, is consulted at named crashpoints in
// the journal's write path; returning an error aborts there, leaving the
// files exactly as a process death at that instant would. Test-only.
// Points: "append" (record durable in the segment, caller not yet acked),
// "compact-base" (base saved and verified, its sidecar not yet published),
// "compact-sealed" (base committed, sealed segments not yet deleted).
var journalCrashHook func(point string) error

func journalCrash(point string) error {
	if h := journalCrashHook; h != nil {
		return h(point)
	}
	return nil
}

// ErrOldJournal reports a journal directory of gob records (*.seg,
// journal-base.gob), written by an older build. Open refuses it before
// any replay and leaves every file as it is.
var ErrOldJournal = errors.New("crawler: journal written by an older build (gob records)")

// journal is the append side. All methods are safe for concurrent use.
type journal struct {
	dir     string
	maxSeg  int64
	metrics *Metrics
	// epoch is the lease epoch this journal was opened with; zero means
	// an unfenced (solo) writer. Epoch-bearing appends re-check the
	// fence file so a paused writer fenced out by a successor fails with
	// ErrFenced instead of landing stale records.
	epoch uint64
	// readonly marks an epoch-zero open of a fenced directory (merge,
	// rebuild, status): replay works, appends refuse with ErrFenced, and
	// nothing on disk is created or truncated.
	readonly bool

	mu       sync.Mutex
	f        *os.File
	seq      int
	size     int64 // active segment size, header included
	hdr      int64 // active segment header length (segHeaderSize or 0)
	appended int64 // records appended since open; guards Compact
}

func segName(seq int) string {
	return fmt.Sprintf("%s%06d%s", segPrefix, seq, segSuffix)
}

func segSeq(name string) (int, bool) {
	digits, pre := strings.CutPrefix(name, segPrefix)
	if digits, suf := strings.CutSuffix(digits, segSuffix); pre && suf {
		n, err := strconv.Atoi(digits)
		return n, err == nil
	}
	return 0, false
}

// openJournal replays the base snapshot (if a Compact ever ran) and every
// live segment under dir (creating it if needed), then opens the last
// segment for appending. A torn record at the very tail — a crash
// mid-append — is truncated away and replay succeeds; corruption
// anywhere else is an error, because data after it would silently vanish.
// This epoch-zero form is the solo path; fleet workers open with their
// lease epoch via openJournalAt.
func openJournal(dir string, maxSeg int64, m *Metrics) (*journal, *crawlState, error) {
	return openJournalAt(dir, maxSeg, m, 0)
}

// openJournalAt is openJournal with a lease epoch. Epoch semantics:
//
//   - epoch 0 on an unfenced directory: the solo path, byte-identical to
//     the unfenced format (no fence file, no segment headers, no
//     per-append fence reads).
//   - epoch 0 on a fenced directory: a reader (merge, rebuild). Replay
//     honors the fence's seals and skips below-fence segments; the
//     handle is read-only — appends fail with ErrFenced and nothing on
//     disk is created or truncated.
//   - epoch below the fence: the caller's lease was reissued; ErrFenced.
//   - epoch above the fence: a takeover. Every live segment is sealed at
//     its replayed length, the fence is fsynced with the new epoch, and
//     appends go to a fresh segment — so anything a paused predecessor
//     writes later lands beyond a seal and is invisible to every future
//     replay, whether or not the predecessor ever notices the fence.
//   - epoch equal to the fence: the owner resuming its own journal.
func openJournalAt(dir string, maxSeg int64, m *Metrics, epoch uint64) (*journal, *crawlState, error) {
	if maxSeg <= 0 {
		maxSeg = defaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("crawler: journal dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("crawler: journal dir: %w", err)
	}
	for _, e := range entries {
		if name := e.Name(); name == legacyBaseName || strings.HasSuffix(name, legacySegSuffix) {
			return nil, nil, fmt.Errorf("crawler: journal %s holds %s: %w", dir, name, ErrOldJournal)
		}
	}
	fence, err := ReadFence(dir)
	if err != nil {
		return nil, nil, err
	}
	if epoch > 0 && epoch < fence.Epoch {
		if m != nil {
			m.FenceRejections.Inc()
		}
		return nil, nil, fmt.Errorf("crawler: journal open: epoch %d below fence %d: %w", epoch, fence.Epoch, ErrFenced)
	}

	st := newCrawlState()
	// A committed base replaces the segments it sealed. Segments at or
	// below its sequence, and bases other than the committed one, may
	// still exist if a crash landed between a compaction's publish and its
	// deletes; they are skipped (the base already holds their records,
	// possibly superseded) and swept here.
	baseSeq := 0
	var meta baseMeta
	if found, err := readJSON(dir, baseMetaName, &meta); err != nil {
		return nil, nil, fmt.Errorf("crawler: journal base: %w", err)
	} else if found {
		if err := st.loadBase(filepath.Join(dir, baseFile(meta.UpToSeq)), &meta); err != nil {
			return nil, nil, fmt.Errorf("crawler: journal base: %w", err)
		}
		baseSeq = meta.UpToSeq
		if m != nil {
			m.JournalRecords.Add(int64(len(st.users) + len(st.games) + len(st.groups) + len(st.achDone)))
		}
	}
	readonly := epoch == 0 && fence.Epoch > 0
	if !readonly {
		_ = sweepSealed(dir, baseSeq) // best-effort: the next open sweeps again
	}
	var seqs []int
	for _, e := range entries {
		if n, ok := segSeq(e.Name()); ok && !e.IsDir() && n > baseSeq {
			seqs = append(seqs, n)
		}
	}
	sort.Ints(seqs)

	j := &journal{dir: dir, maxSeg: maxSeg, metrics: m, epoch: epoch, readonly: readonly, seq: baseSeq + 1}
	takeover := epoch > fence.Epoch
	// replayed records, per live segment, the absolute offset just past
	// the last record the successor's state covers — the seal points of a
	// takeover.
	replayed := make(map[int]int64, len(seqs))
	lastUnsealedOK := false // last live segment replayed whole and is ours to append to
	for i, seq := range seqs {
		last := i == len(seqs)-1
		path := filepath.Join(dir, segName(seq))
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, fmt.Errorf("crawler: journal segment %s: %w", path, err)
		}
		segEpoch, hdr, err := segHeader(raw)
		if err != nil {
			return nil, nil, fmt.Errorf("crawler: journal segment %s: %w", path, err)
		}
		seal, sealed := fence.Seals[seq]
		var valid int64
		switch {
		case sealed:
			// Replay exactly the sealed prefix; bytes past the seal are a
			// fenced-out writer's late appends (or its torn tail) and are
			// inert. Anything short or corrupt below the seal is real
			// damage — the seal was a replayed-clean length once.
			if seal < hdr {
				seal = hdr
			}
			valid, err = replay(raw[:min(seal, int64(len(raw)))], hdr, st, m)
			if err != nil {
				return nil, nil, fmt.Errorf("crawler: journal segment %s (sealed at %d): %w", path, seal, err)
			}
			if valid != seal {
				return nil, nil, fmt.Errorf("crawler: journal segment %s: sealed at %d but only %d bytes replay clean", path, seal, valid)
			}
		case fence.Epoch > 0 && segEpoch < fence.Epoch:
			// An unsealed segment below the fence: forged by a fenced-out
			// writer racing the takeover (its rotation landed after the
			// takeover's directory listing). Its records are redone,
			// value-identical work at best — skip the whole segment.
			valid = hdr
		default:
			valid, err = replay(raw, hdr, st, m)
			if err != nil {
				if !last {
					return nil, nil, fmt.Errorf("crawler: journal segment %s: %w", path, err)
				}
				// Torn tail in the final segment: a crash mid-append. The
				// owner truncates it away and resumes right after the last
				// whole record; a takeover or reader just seals/stops there.
				if !takeover && !readonly {
					if terr := os.Truncate(path, valid); terr != nil {
						return nil, nil, fmt.Errorf("crawler: journal truncate %s: %w", segName(seq), terr)
					}
					lastUnsealedOK = epoch == 0 || segEpoch == epoch
				}
			} else if last && (epoch == 0 || segEpoch == epoch) {
				lastUnsealedOK = true
			}
		}
		replayed[seq] = valid
		if last {
			j.seq = seq
			j.size = valid
			j.hdr = hdr
		}
	}

	switch {
	case readonly:
		// Merge/rebuild/status on a fenced directory: replay only.
	case takeover:
		// Seal everything live at the replayed lengths, publish the new
		// epoch durably, then append into a fresh segment. Order matters:
		// once the fence is on disk, the predecessor's next append (which
		// re-reads it) fails, and anything it lands before noticing sits
		// beyond a seal.
		fence.Epoch = epoch
		if fence.Seals == nil {
			fence.Seals = make(map[int]int64, len(replayed))
		}
		for seq, valid := range replayed {
			fence.Seals[seq] = valid
		}
		if err := writeFence(dir, fence); err != nil {
			return nil, nil, err
		}
		fallthrough
	case epoch > 0 && !lastUnsealedOK:
		// A takeover, or our own journal whose last segment is not
		// appendable (sealed by our takeover crash-window, torn below a
		// usable header, or absent): start a fresh one.
		nextSeq := j.seq
		if len(seqs) > 0 {
			nextSeq++
		}
		if err := j.createFencedSegment(nextSeq); err != nil {
			return nil, nil, err
		}
	default:
		// The owner (fenced or solo) resuming its own tail segment.
		f, err := os.OpenFile(filepath.Join(dir, segName(j.seq)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("crawler: journal open: %w", err)
		}
		j.f = f
		if epoch > 0 && j.size == 0 {
			// Fresh or fully truncated segment under a fenced writer:
			// (re)stamp the epoch header.
			if err := j.writeSegHeaderLocked(); err != nil {
				f.Close()
				return nil, nil, err
			}
		}
	}
	if m != nil {
		m.JournalSegments.Store(int64(len(seqs)))
		if len(seqs) == 0 && !readonly {
			m.JournalSegments.Store(1)
		}
	}
	return j, st, nil
}

// segHeader classifies a segment's bytes: fenced segments open with
// segMagic and carry their writer's epoch; anything else (including every
// segment a solo crawl writes) is the headerless layout, epoch zero. A
// file too short to hold a whole header is headerless — if its bytes are
// a torn fenced header, replay reports a torn record at offset 0, which
// the tail-truncation path cleans up exactly like any torn append.
func segHeader(raw []byte) (epoch uint64, hdr int64, err error) {
	if len(raw) < segHeaderSize || string(raw[0:4]) != segMagic {
		return 0, 0, nil
	}
	if v := binary.BigEndian.Uint32(raw[4:8]); v != segHeaderVersion {
		return 0, 0, fmt.Errorf("segment header version %d is newer than this binary understands", v)
	}
	return binary.BigEndian.Uint64(raw[8:16]), segHeaderSize, nil
}

// writeSegHeaderLocked stamps the active segment's epoch header. The
// segment must be empty.
func (j *journal) writeSegHeaderLocked() error {
	var b [segHeaderSize]byte
	copy(b[0:4], segMagic)
	binary.BigEndian.PutUint32(b[4:8], segHeaderVersion)
	binary.BigEndian.PutUint64(b[8:16], j.epoch)
	if _, err := j.f.Write(b[:]); err != nil {
		return fmt.Errorf("crawler: segment header: %w", err)
	}
	j.size = segHeaderSize
	j.hdr = segHeaderSize
	return nil
}

// createFencedSegment opens a fresh epoch-stamped segment at the first
// free sequence at or after startSeq. O_EXCL makes segment creation a
// race arbiter: a fenced-out predecessor rotating concurrently cannot
// silently share a file with the new owner.
func (j *journal) createFencedSegment(startSeq int) error {
	for seq := startSeq; ; seq++ {
		f, err := os.OpenFile(filepath.Join(j.dir, segName(seq)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if os.IsExist(err) {
			// A below-fence writer forged this sequence between our
			// directory listing and now; its segment replays as skipped.
			continue
		}
		if err != nil {
			return fmt.Errorf("crawler: journal create: %w", err)
		}
		j.f = f
		j.seq = seq
		j.size = 0
		return j.writeSegHeaderLocked()
	}
}

// replay applies every whole record of seg from byte offset start to
// st and returns the offset just past the last whole record. The error
// is non-nil when seg ends in a partial or corrupt record; it names the
// record index and byte offset so a failed resume points at the exact
// spot in the offending shard file, not just "record 17 somewhere".
func replay(seg []byte, start int64, st *crawlState, m *Metrics) (int64, error) {
	var (
		dec   dataset.LineDecoder
		rec   journalRecord
		index int64
	)
	for valid := start; ; index++ {
		rest := seg[min(valid, int64(len(seg))):]
		switch {
		case len(rest) == 0:
			return valid, nil // clean end
		case len(rest) < recHeaderSize:
			return valid, fmt.Errorf("record %d at byte offset %d: torn record header", index, valid)
		}
		length := int64(binary.BigEndian.Uint32(rest[0:4]))
		if int64(len(rest)-recHeaderSize) < length {
			return valid, fmt.Errorf("record %d at byte offset %d: torn record payload", index, valid)
		}
		payload := rest[recHeaderSize : recHeaderSize+length]
		if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(rest[4:8]) {
			return valid, fmt.Errorf("record %d at byte offset %d: record checksum mismatch", index, valid)
		}
		if err := decodeRecord(&dec, payload, &rec); err != nil {
			return valid, fmt.Errorf("record %d at byte offset %d: record decode: %w", index, valid, err)
		}
		st.apply(&rec)
		valid += recHeaderSize + length
		if m != nil {
			m.JournalRecords.Add(1)
		}
	}
}

// lineKinds maps every record kind but kindPhaseDone to its line's kind.
var lineKinds = map[uint8]dataset.RecordKind{kindUser: dataset.KindUser, kindGame: dataset.KindGame, kindAch: dataset.KindGame, kindGroup: dataset.KindGroup}

// encodeRecord frames one record as the journal stores it: payload
// length and CRC-32, then the payload — the kind byte, then the phase
// byte of a phase marker or the record's snapshot line.
func encodeRecord(rec *journalRecord) ([]byte, error) {
	b := append(make([]byte, recHeaderSize, 256), rec.Kind)
	var err error
	switch {
	case rec.Kind == kindPhaseDone:
		b = append(b, rec.Phase)
	case lineKinds[rec.Kind] != rec.Line.Kind:
		return nil, fmt.Errorf("crawler: journal record kind %d with a line of kind %d", rec.Kind, rec.Line.Kind)
	default:
		if b, err = dataset.AppendRecordLine(b, &rec.Line); err != nil {
			return nil, fmt.Errorf("crawler: journal encode: %w", err)
		}
	}
	payload := b[recHeaderSize:]
	binary.BigEndian.PutUint32(b[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(b[4:8], crc32.ChecksumIEEE(payload))
	return b, nil
}

// decodeRecord is encodeRecord's inverse for payload p. One dec serves a
// whole replay, so its vocabulary interning carries across records.
func decodeRecord(dec *dataset.LineDecoder, p []byte, rec *journalRecord) error {
	if len(p) < 2 {
		return fmt.Errorf("%d-byte payload", len(p))
	}
	rec.Kind = p[0]
	if rec.Kind == kindPhaseDone {
		if len(p) != 2 {
			return fmt.Errorf("%d-byte phase marker", len(p))
		}
		rec.Phase = p[1]
		return nil
	}
	if err := dec.Decode(p[1:], &rec.Line); err != nil {
		return err
	}
	if lineKinds[rec.Kind] != rec.Line.Kind {
		return fmt.Errorf("record kind %d holds a line of kind %d", rec.Kind, rec.Line.Kind)
	}
	return nil
}

// append encodes one record, writes it to the active segment, and flushes
// it to the OS, rotating to a fresh segment first when the active one is
// full. One append touches exactly one segment. A crawl without a
// journal has a nil one, to which every append is a no-op.
func (j *journal) append(rec *journalRecord) error {
	if j == nil {
		return nil
	}
	b, err := encodeRecord(rec)
	if err != nil {
		return err
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.readonly {
		return fmt.Errorf("crawler: journal append: read-only open of a fenced journal (fence epoch ahead of this writer): %w", ErrFenced)
	}
	if j.f == nil {
		return errors.New("crawler: journal closed")
	}
	// Epoch-bearing writers re-read the fence before every append: once a
	// successor's takeover has published a higher epoch, this writer's
	// lease is gone and the record must not land. This is the check that
	// turns a paused-past-TTL worker from a correctness hazard into a
	// clean ErrFenced self-termination. Solo journals (epoch 0, never
	// fenced) skip the read entirely.
	if j.epoch > 0 {
		if err := j.checkFenceLocked(); err != nil {
			return err
		}
	}
	if j.size > j.hdr && j.size+int64(len(b)) > j.maxSeg {
		if err := j.rotateLocked(); err != nil {
			return err
		}
	}
	if _, err := j.f.Write(b); err != nil {
		return fmt.Errorf("crawler: journal write: %w", err)
	}
	j.size += int64(len(b))
	j.appended++
	if j.metrics != nil {
		j.metrics.JournalRecords.Add(1)
	}
	// Crashpoint: the record is in the file, the caller has not been
	// acked. A death here journals the unit of work without its ack — the
	// successor may redo and re-append it, which replay deduplicates.
	if err := journalCrash("append"); err != nil {
		return err
	}
	return nil
}

// checkFenceLocked re-reads the fence and fails with ErrFenced when a
// higher epoch has taken the journal over. An unreadable fence also
// refuses the write: ownership can no longer be proven.
func (j *journal) checkFenceLocked() error {
	fence, err := ReadFence(j.dir)
	if err != nil {
		return fmt.Errorf("crawler: journal append: %w", err)
	}
	if fence.Epoch > j.epoch {
		if j.metrics != nil {
			j.metrics.FenceRejections.Inc()
		}
		return fmt.Errorf("crawler: journal append: epoch %d below fence %d: %w", j.epoch, fence.Epoch, ErrFenced)
	}
	return nil
}

// rotateLocked seals the active segment (fsync + close) and atomically
// switches appends to the next one. Epoch-bearing writers create the new
// segment with O_EXCL and stamp its header; a sequence collision means a
// successor (or a fenced-out straggler) raced us — re-check the fence and
// either fail fenced or take the next free sequence.
func (j *journal) rotateLocked() error {
	if err := j.sealLocked(); err != nil {
		return fmt.Errorf("crawler: journal seal: %w", err)
	}
	if err := j.openSegmentLocked(j.seq + 1); err != nil {
		return fmt.Errorf("crawler: journal rotate: %w", err)
	}
	if j.epoch > 0 {
		if err := j.checkFenceLocked(); err != nil {
			return err
		}
	}
	if j.metrics != nil {
		j.metrics.JournalSegments.Add(1)
	}
	return nil
}

// sealLocked fsyncs and closes the active segment.
func (j *journal) sealLocked() error {
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// openSegmentLocked starts appending to a fresh segment at seq; an
// epoch-bearing writer takes the first free sequence from there.
func (j *journal) openSegmentLocked(seq int) error {
	if j.epoch > 0 {
		return j.createFencedSegment(seq)
	}
	f, err := os.OpenFile(filepath.Join(j.dir, segName(seq)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	j.f, j.seq, j.size, j.hdr = f, seq, 0, 0
	return nil
}

// Position reports the active segment index and its byte size, for the
// progress log.
func (j *journal) Position() (seg int, offset int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq, j.size
}

// Close seals the journal (idempotent).
func (j *journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	return j.sealLocked()
}

// baseMeta is the sidecar of a compacted base; publishing it commits the
// compaction. The base is the replayed state up to segment UpToSeq,
// saved as a snapshot (baseFile) with its manifest; a resume streams it
// instead of re-replaying months of segments. AchDone lists the apps
// whose achievement set is journaled: it rides on the app's base game
// line, which carries nothing else for the AchOnly apps (no game record).
type baseMeta struct {
	UpToSeq   int      `json:"up_to_seq"`
	AchDone   []uint32 `json:"ach_done"`
	AchOnly   []uint32 `json:"ach_only,omitempty"`
	PhaseDone [6]bool  `json:"phase_done"`
}

// baseFile names the base that seals every segment up to seq.
func baseFile(seq int) string { return fmt.Sprintf("%s%06d.jsonl.gz", basePrefix, seq) }

// verifyBase checks a base file's bytes against its manifest.
func verifyBase(path string) error {
	man, err := dataset.ReadManifest(path)
	if err != nil {
		return err
	}
	if man == nil {
		return fmt.Errorf("%s has no manifest", path)
	}
	return man.VerifyFile(path)
}

// loadBase verifies the base at path, then streams it into st. A damaged
// base is an error: unlike a torn segment tail there is no safe way to
// use half a base, and the sealed segments it replaced are gone.
func (st *crawlState) loadBase(path string, meta *baseMeta) error {
	if err := verifyBase(path); err != nil {
		return err
	}
	r, err := dataset.OpenReader(path)
	if err != nil {
		return err
	}
	defer r.Close()
	achOnly := make(map[uint32]bool, len(meta.AchDone)) // key present: set journaled
	for _, app := range meta.AchDone {
		achOnly[app] = false
	}
	for _, app := range meta.AchOnly {
		achOnly[app] = true
	}
	lineRecords := [...]uint8{dataset.KindGame: kindGame, dataset.KindUser: kindUser, dataset.KindGroup: kindGroup}
	var rec journalRecord
	for {
		ok, err := r.Next(&rec.Line)
		if !ok {
			st.phaseDone = meta.PhaseDone
			return err
		}
		rec.Kind = lineRecords[rec.Line.Kind]
		if only, done := achOnly[rec.Line.Game.AppID]; done && rec.Kind == kindGame {
			st.apply(&journalRecord{Kind: kindAch, Line: rec.Line})
			if only {
				continue
			}
			rec.Line.Game.Achievements = nil
		}
		st.apply(&rec)
	}
}

// writeBase commits st as the base sealing segments up to upTo: saved by
// the dataset Writer (temp, fsync, rename, dir fsync, manifest), verified
// against its manifest, then committed by its sidecar.
func writeBase(dir string, upTo int, st *crawlState) error {
	meta := baseMeta{UpToSeq: upTo, PhaseDone: st.phaseDone}
	for app := range st.achDone {
		meta.AchDone = append(meta.AchDone, app)
	}
	slices.Sort(meta.AchDone)
	snap := &dataset.Snapshot{Users: st.users, Games: slices.Clone(st.games), Groups: st.groups}
	st.attachAch(snap.Games)
	for _, app := range meta.AchDone {
		if _, ok := st.gameIdx[app]; !ok {
			meta.AchOnly = append(meta.AchOnly, app)
			snap.Games = append(snap.Games, dataset.GameRecord{AppID: app, Achievements: st.ach[app]})
		}
	}
	path := filepath.Join(dir, baseFile(upTo))
	if err := snap.Save(path); err != nil {
		return fmt.Errorf("crawler: base save: %w", err)
	}
	if err := verifyBase(path); err != nil {
		return fmt.Errorf("crawler: compact verification: %w", err)
	}
	if err := journalCrash("compact-base"); err != nil {
		return err
	}
	return publishJSON(dir, baseMetaName, meta)
}

// sweepSealed removes what the base committed at upTo (0: none)
// replaces — segments up to upTo and every other base — and syncs dir.
func sweepSealed(dir string, upTo int) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	keep := baseFile(upTo)
	for _, e := range entries {
		name := e.Name()
		n, isSeg := segSeq(name)
		if isSeg && n <= upTo || strings.HasPrefix(name, basePrefix) && name != keep && name != dataset.ManifestPath(keep) {
			if err := os.Remove(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
	}
	return syncJournalDir(dir)
}

// syncJournalDir fsyncs the journal directory so renames and deletes are
// durable; filesystems that cannot sync directories are tolerated.
func syncJournalDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("crawler: journal dir open: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil &&
		!errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return fmt.Errorf("crawler: journal dir sync: %w", err)
	}
	return nil
}

// Compact seals everything the journal currently holds — the replayed
// state st, which must be exactly what openJournal returned with no
// appends since — into one base, deletes the sealed segments, and starts
// a fresh active segment, bounding resume time on a months-long crawl.
// The base is verified and committed before any segment is deleted, so a
// failed compaction never costs data.
func (j *journal) Compact(st *crawlState) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.readonly {
		return fmt.Errorf("crawler: compact refused: journal is fenced and this handle is read-only (open with the owning lease epoch): %w", ErrFenced)
	}
	if j.f == nil {
		return errors.New("crawler: journal closed")
	}
	if j.epoch > 0 {
		if err := j.checkFenceLocked(); err != nil {
			return err
		}
	}
	// st must cover everything on disk. Records appended through this
	// journal instance are not in the st its openJournal returned, and a
	// base built from that stale state would silently drop them when the
	// sealed segments are deleted — refuse rather than lose data.
	if j.appended > 0 {
		return fmt.Errorf("crawler: compact refused: %d records appended since open (reopen the journal and compact before appending)", j.appended)
	}
	if err := j.sealLocked(); err != nil {
		return fmt.Errorf("crawler: compact seal: %w", err)
	}
	upTo := j.seq

	if err := writeBase(j.dir, upTo, st); err != nil {
		return err
	}
	if err := journalCrash("compact-sealed"); err != nil {
		return err
	}

	// Delete what the committed base replaces; a crash mid-delete leaves
	// leftovers the next openJournal sweeps.
	if err := sweepSealed(j.dir, upTo); err != nil {
		return fmt.Errorf("crawler: compact: %w", err)
	}

	if err := j.openSegmentLocked(upTo + 1); err != nil {
		return fmt.Errorf("crawler: compact reopen: %w", err)
	}
	if j.metrics != nil {
		j.metrics.JournalSegments.Store(1)
	}
	return nil
}

// Convenience appenders used by the crawl phases.

func (j *journal) appendUser(u *dataset.UserRecord) error {
	return j.append(&journalRecord{Kind: kindUser, Line: dataset.Record{Kind: dataset.KindUser, User: *u}})
}

func (j *journal) appendGame(g *dataset.GameRecord) error {
	return j.append(&journalRecord{Kind: kindGame, Line: dataset.Record{Kind: dataset.KindGame, Game: *g}})
}

func (j *journal) appendAch(appID uint32, ach []dataset.AchievementRecord) error {
	game := dataset.GameRecord{AppID: appID, Achievements: ach}
	return j.append(&journalRecord{Kind: kindAch, Line: dataset.Record{Kind: dataset.KindGame, Game: game}})
}

func (j *journal) appendGroup(g *dataset.GroupRecord) error {
	return j.append(&journalRecord{Kind: kindGroup, Line: dataset.Record{Kind: dataset.KindGroup, Group: *g}})
}

func (j *journal) appendPhaseDone(phase uint8) error {
	return j.append(&journalRecord{Kind: kindPhaseDone, Phase: phase})
}
