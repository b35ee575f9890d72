// Snapshot manifests. The paper's §3.1 promises the "full dataset
// available for download"; at 108.7M accounts the snapshot file *is* the
// artifact, so every Save emits a sidecar manifest recording what the
// file must contain — a format version, per-section record counts and
// CRC-32C checksums over a canonical encoding of each section, and a
// whole-file SHA-256 of the on-disk bytes. Load verifies the manifest
// when present and localizes damage ("games section checksum mismatch")
// instead of surfacing a cryptic decode failure; fsck uses the same
// checks in accumulate-everything mode.

package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
)

// SnapshotFormatVersion is stamped into every manifest this code writes.
// Load refuses manifests from a newer version rather than guessing.
const SnapshotFormatVersion = 1

// Section names used in manifests and fsck reports.
const (
	sectionUsers  = "users"
	sectionGames  = "games"
	sectionGroups = "groups"
)

// SectionSum records one section's expected shape.
type SectionSum struct {
	// Records is the number of records in the section.
	Records int `json:"records"`
	// CRC32C is a Castagnoli CRC over the section's canonical binary
	// encoding (see canon below), independent of the byte layout — the
	// same snapshot saved as .jsonl, .jsonl.gz and a .d directory carries
	// the same section checksums.
	CRC32C uint32 `json:"crc32c"`
}

// Manifest is the sidecar integrity record written next to every saved
// snapshot as <path>.manifest.json.
type Manifest struct {
	FormatVersion int    `json:"format_version"`
	Encoding      string `json:"encoding"` // always "jsonl"
	Compressed    bool   `json:"compressed"`
	CollectedAt   int64  `json:"collected_at"`
	// FileBytes and FileSHA256 cover the exact on-disk byte stream
	// (post-compression), catching truncation and bit rot before any
	// decode is attempted.
	FileBytes  int64                 `json:"file_bytes"`
	FileSHA256 string                `json:"file_sha256"`
	Sections   map[string]SectionSum `json:"sections"`
	// ShardRecords and Shards describe the sharded directory layout
	// (format version 2, shard.go). Both are omitted from single-file
	// manifests, keeping version-1 manifest bytes identical to what
	// pre-shard builds wrote.
	ShardRecords int        `json:"shard_records,omitempty"`
	Shards       []ShardSum `json:"shards,omitempty"`
}

// ManifestPath returns the sidecar path for a snapshot path.
func ManifestPath(path string) string { return path + ".manifest.json" }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// canon feeds a fixed, hand-rolled binary encoding of the record types
// into a CRC-32C: varints for integers and lengths, IEEE-754 bits for
// floats, length-prefixed strings, fields in declaration order. The
// encoding is defined here and nowhere else, so the checksum of a section
// depends only on its values — NOT on the byte layout and not on
// incidental process state. (An earlier draft hashed gob output; gob
// assigns type IDs from a process-global counter, so the same records
// hashed differently depending on what else the process had encoded.)
//
// The encoding is appended to a buffer and folded into the CRC in blocks
// of canonBlock bytes: the CRC runs over the same byte stream as writing
// each field straight into a hash, without a call per varint or string.
type canon struct {
	crc uint32
	buf []byte
}

// canonBlock is the buffered encoding size at which canon folds its
// buffer into the CRC. The zero canon is ready to use.
const canonBlock = 16 << 10

func (c *canon) u64(v uint64)  { c.buf = binary.AppendUvarint(c.buf, v) }
func (c *canon) i64(v int64)   { c.buf = binary.AppendVarint(c.buf, v) }
func (c *canon) f64(v float64) { c.u64(math.Float64bits(v)) }
func (c *canon) str(s string)  { c.u64(uint64(len(s))); c.buf = append(c.buf, s...) }
func (c *canon) boolean(b bool) {
	if b {
		c.u64(1)
	} else {
		c.u64(0)
	}
}

// flush folds the buffered encoding into the CRC once a block is full;
// the record encoders call it after each record.
func (c *canon) flush() {
	if len(c.buf) >= canonBlock {
		c.crc = crc32.Update(c.crc, castagnoli, c.buf)
		c.buf = c.buf[:0]
	}
}

// sum returns the CRC-32C of everything encoded so far.
func (c *canon) sum() uint32 {
	c.crc = crc32.Update(c.crc, castagnoli, c.buf)
	c.buf = c.buf[:0]
	return c.crc
}

func (c *canon) user(u *UserRecord) {
	c.u64(u.SteamID)
	c.i64(u.Created)
	c.str(u.Country)
	c.str(u.City)
	c.u64(uint64(len(u.Friends)))
	for _, f := range u.Friends {
		c.u64(f.SteamID)
		c.i64(f.Since)
	}
	c.u64(uint64(len(u.Games)))
	for _, g := range u.Games {
		c.u64(uint64(g.AppID))
		c.i64(g.TotalMinutes)
		c.i64(int64(g.TwoWeekMinutes))
	}
	c.u64(uint64(len(u.Groups)))
	for _, gid := range u.Groups {
		c.u64(gid)
	}
	c.flush()
}

func (c *canon) game(g *GameRecord) {
	c.u64(uint64(g.AppID))
	c.str(g.Name)
	c.str(g.Type)
	c.u64(uint64(len(g.Genres)))
	for _, s := range g.Genres {
		c.str(s)
	}
	c.boolean(g.Multiplayer)
	c.i64(g.PriceCents)
	c.i64(int64(g.Metacritic))
	c.i64(int64(g.ReleaseYear))
	c.str(g.Developer)
	c.u64(uint64(len(g.Achievements)))
	for _, a := range g.Achievements {
		c.str(a.Name)
		c.f64(a.Percent)
	}
	c.flush()
}

func (c *canon) group(g *GroupRecord) {
	c.u64(g.GID)
	c.str(g.Name)
	c.str(g.Type)
	c.u64(uint64(len(g.Members)))
	for _, m := range g.Members {
		c.u64(m)
	}
	c.flush()
}

// sectionSums re-derives each section's record count and canonical
// checksum from decoded records, reproducible regardless of which layout
// carried them.
func (s *Snapshot) sectionSums() map[string]SectionSum {
	var games, users, groups canon
	for i := range s.Games {
		games.game(&s.Games[i])
	}
	for i := range s.Users {
		users.user(&s.Users[i])
	}
	for i := range s.Groups {
		groups.group(&s.Groups[i])
	}
	return map[string]SectionSum{
		sectionGames:  {Records: len(s.Games), CRC32C: games.sum()},
		sectionUsers:  {Records: len(s.Users), CRC32C: users.sum()},
		sectionGroups: {Records: len(s.Groups), CRC32C: groups.sum()},
	}
}

// ContentSignature returns a stable hex digest of the snapshot's decoded
// content: a SHA-256 over the per-section canonical CRC-32C checksums,
// record counts and CollectedAt. Two snapshots with identical records
// share a signature regardless of container format, compression, or
// whether a manifest sidecar exists — so it serves as an ETag-grade
// identity for in-memory snapshots whose file hash is unavailable (a
// merged result not yet saved, a snapshot loaded from a pre-manifest
// file). It is NOT the manifest's FileSHA256, which covers on-disk bytes.
func (s *Snapshot) ContentSignature() string {
	h := sha256.New()
	var buf [binary.MaxVarintLen64]byte
	put := func(v uint64) { h.Write(buf[:binary.PutUvarint(buf[:], v)]) }
	put(uint64(SnapshotFormatVersion))
	put(uint64(int64(s.CollectedAt)))
	sums := s.sectionSums()
	for _, name := range []string{sectionUsers, sectionGames, sectionGroups} {
		put(uint64(sums[name].Records))
		put(uint64(sums[name].CRC32C))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// minLineBytes is the length of the shortest line each section
// (games, users, groups) can hold: a zero-valued record.
var minLineBytes = func() (n [3]int64) {
	g, _ := appendGameLine(nil, &GameRecord{})
	u, _ := appendUserLine(nil, &UserRecord{})
	p, _ := appendGroupLine(nil, &GroupRecord{})
	return [3]int64{int64(len(g)), int64(len(u)), int64(len(p))}
}()

// maxGzipRatio bounds how many uncompressed bytes recordHints believes a
// compressed snapshot holds per file byte. Deflate at gzipLevel shrinks
// this JSONL about 7.3:1 (8.2:1 at the old default level 6), so 16 leaves
// headroom for any level.
const maxGzipRatio = 16

// recordHints returns the manifest's section record counts (games,
// users, groups) for presizing a load. Only call it once the file's
// bytes have verified against FileBytes: each count is capped by the
// number of shortest lines those bytes could hold (maxGzipRatio times as
// many when compressed), so a manifest with a wrong count costs an
// allocation proportional to the file, never more.
func (m *Manifest) recordHints() [3]int {
	bytes := m.FileBytes
	if m.Compressed {
		bytes *= maxGzipRatio
	}
	var h [3]int
	for i, name := range writerSections {
		h[i] = int(min(max(int64(m.Sections[name].Records), 0), bytes/minLineBytes[i]))
	}
	return h
}

// ReadManifest reads the sidecar manifest for a snapshot path. A missing
// sidecar returns (nil, nil) — pre-manifest snapshots load unverified —
// while an unreadable or unparsable one is an error, because a manifest
// that exists but cannot be trusted must not silently disable checking.
func ReadManifest(path string) (*Manifest, error) {
	b, err := os.ReadFile(ManifestPath(path))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("dataset: reading manifest for %s: %w", path, err)
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("dataset: manifest for %s is not valid JSON: %w", path, err)
	}
	return &m, nil
}

// writeManifestTemp writes the manifest to a synced temp file in dir and
// returns its path; the caller renames it into place after the data file
// rename so a crash never pairs a new manifest with old data.
func writeManifestTemp(dir string, m *Manifest) (string, error) {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return "", fmt.Errorf("dataset: encoding manifest: %w", err)
	}
	f, err := os.CreateTemp(dir, ".tmp-manifest-")
	if err != nil {
		return "", fmt.Errorf("dataset: creating manifest temp: %w", err)
	}
	tmp := f.Name()
	if _, err := f.Write(append(b, '\n')); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("dataset: writing manifest temp: %w", err)
	}
	return tmp, nil
}

// VerifyFile checks a single file's raw on-disk bytes against the
// manifest's size and whole-file hash, before any decoding.
func (m *Manifest) VerifyFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("dataset: opening %s: %w", path, err)
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return fmt.Errorf("dataset: hashing %s: %w", path, err)
	}
	if n != m.FileBytes {
		return fmt.Errorf("dataset: %s is %d bytes, manifest records %d (truncated or partially overwritten)", path, n, m.FileBytes)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != m.FileSHA256 {
		return fmt.Errorf("dataset: %s file hash mismatch (got %s, manifest %s): on-disk corruption", path, got, m.FileSHA256)
	}
	return nil
}

// verifySections checks one read's re-derived section counts, canonical
// checksums and header timestamp against the manifest and reports every
// mismatch, localized to the damaged section. Load surfaces the first
// one; fsck keeps all.
func (m *Manifest) verifySections(collectedAt int64, got map[string]SectionSum) []Violation {
	var out []Violation
	for _, name := range []string{sectionUsers, sectionGames, sectionGroups} {
		want, ok := m.Sections[name]
		if !ok {
			out = append(out, Violation{Class: ViolationSectionCount,
				Detail: fmt.Sprintf("%s section missing from manifest", name)})
			continue
		}
		have := got[name]
		if want.Records != have.Records {
			out = append(out, Violation{Class: ViolationSectionCount,
				Detail: fmt.Sprintf("%s section has %d records, manifest records %d", name, have.Records, want.Records)})
		}
		if want.CRC32C != have.CRC32C {
			out = append(out, Violation{Class: ViolationSectionChecksum,
				Detail: fmt.Sprintf("%s section checksum mismatch (file %08x, manifest %08x)", name, have.CRC32C, want.CRC32C)})
		}
	}
	if collectedAt != m.CollectedAt {
		out = append(out, Violation{Class: ViolationHeader,
			Detail: fmt.Sprintf("header CollectedAt %d, manifest records %d", collectedAt, m.CollectedAt)})
	}
	return out
}

// removeStaleManifest retires the previous manifest before the data-file
// rename, so no crash window pairs fresh data with a stale manifest.
func removeStaleManifest(path string) error {
	err := os.Remove(ManifestPath(path))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("dataset: removing stale manifest for %s: %w", path, err)
	}
	return nil
}
