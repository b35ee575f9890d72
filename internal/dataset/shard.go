// Sharded snapshot layout. A snapshot path ending in ".d" names a
// directory of fixed-record-count JSONL segments:
//
//	snap.d/
//	  header.jsonl      the single header line
//	  games-0000.jsonl  catalog records, ShardRecords per segment
//	  users-0000.jsonl  user records
//	  users-0001.jsonl  ...
//	  groups-0000.jsonl group records
//
// The segments are a pure byte-split of the canonical single-file JSONL
// stream: concatenating header + games + users + groups segments in index
// order reproduces, byte for byte, what Save would have written to a
// single ".jsonl" file. The sidecar manifest (<dir>.manifest.json) is the
// same Manifest schema stamped with format version 2, extended with the
// per-shard record counts, byte counts and CRC-32C checksums; FileBytes
// and FileSHA256 cover the concatenated stream, so a sharded snapshot and
// its single-file equivalent share the file hash and every section
// checksum. That identity is what lets MergeFilesAt and the property
// tests compare the two layouts by manifest SHA alone.
//
// Why shards: at paper scale (108.7M accounts) the single-file snapshot
// cannot be decoded into memory. Segments give the streaming Reader and
// Writer (stream.go) natural section boundaries — fsck and analysis
// iterate one section at a time, several times if needed, without ever
// holding more than a decode window of records — and give integrity
// checks sub-file granularity ("users-0003.jsonl checksum mismatch"
// localizes rot to one 100k-record segment).

package dataset

import (
	"errors"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// SnapshotShardFormatVersion is stamped into sharded-directory manifests.
// Single-file manifests keep SnapshotFormatVersion (1); the sharded
// layout is a superset reader-side, so version gates compare against the
// layout's own maximum.
const SnapshotShardFormatVersion = 2

// DefaultShardRecords is the fixed per-segment record count used when
// WithShardRecords is not given. It is part of the written layout (and
// recorded in the manifest), not a tuning knob read back at load time.
const DefaultShardRecords = 100_000

// sectionHeader names the header pseudo-section in shard manifests.
const sectionHeader = "header"

// ShardSum records one segment's expected shape in a version-2 manifest:
// the file name within the directory, its section, and the raw byte
// count + CRC-32C of the segment's on-disk bytes (unlike the section
// checksums, which cover the canonical record encoding, these cover the
// JSONL bytes — cheap to verify without decoding).
type ShardSum struct {
	File    string `json:"file"`
	Section string `json:"section"`
	Records int    `json:"records"`
	Bytes   int64  `json:"bytes"`
	CRC32C  uint32 `json:"crc32c"`
}

// ErrShardSegment reports a snapshot path that points at one segment file
// inside a sharded directory. Segments are not self-contained snapshots
// (no header, no manifest, one section's slice of records), so the caller
// almost certainly wants the enclosing directory.
var ErrShardSegment = errors.New("path names a shard segment inside a .d snapshot directory; pass the directory itself")

// shardSegmentRe matches segment file basenames.
var shardSegmentRe = regexp.MustCompile(`^(?:header|(?:games|users|groups)-\d+)\.jsonl$`)

// pathSharded reports whether path names the sharded directory layout.
func pathSharded(path string) bool {
	return strings.HasSuffix(strings.TrimRight(path, "/"), ".d")
}

// snapshotPath classifies a snapshot path: the sharded directory layout
// (".d" suffix), or a single ".jsonl" / ".jsonl.gz" file by explicit
// suffix. Anything else is rejected up front with an error naming the
// accepted forms, and a path that names a segment file inside a sharded
// directory with ErrShardSegment, so the mistake is caught before any
// work happens.
func snapshotPath(path string) (gzipped, sharded bool, err error) {
	clean := strings.TrimRight(path, "/")
	if pathSharded(clean) {
		return false, true, nil
	}
	if i := strings.LastIndexByte(clean, '/'); i >= 0 {
		dir, base := clean[:i], clean[i+1:]
		if pathSharded(dir) && shardSegmentRe.MatchString(base) {
			return false, false, fmt.Errorf("dataset: %s: %w", path, ErrShardSegment)
		}
	}
	switch {
	case strings.HasSuffix(clean, ".jsonl"):
		return false, false, nil
	case strings.HasSuffix(clean, ".jsonl.gz"):
		return true, false, nil
	}
	return false, false, fmt.Errorf("dataset: %s: unknown snapshot extension (want .jsonl, .jsonl.gz or a .d directory)", clean)
}

// shardFileName returns the canonical segment file name for a section
// index. Four digits cover 10k segments (1B records at the default shard
// size); larger indexes simply widen.
func shardFileName(section string, idx int) string {
	return fmt.Sprintf("%s-%04d.jsonl", section, idx)
}

// segmentInfo is one segment in concatenation order.
type segmentInfo struct {
	file    string // basename within the directory
	section string
	// sum is the manifest's expectation for this segment, nil when the
	// directory has no manifest.
	sum *ShardSum
}

// shardSegments lists a sharded directory's segments in canonical
// concatenation order (header, games, users, groups; ascending index).
// With a manifest the listed shards are authoritative; without one the
// directory is scanned and segment indexes must be contiguous from zero,
// so a missing middle segment is an error rather than silent truncation.
func shardSegments(dir string, man *Manifest) ([]segmentInfo, error) {
	if man != nil && len(man.Shards) > 0 {
		out := make([]segmentInfo, len(man.Shards))
		for i := range man.Shards {
			s := &man.Shards[i]
			out[i] = segmentInfo{file: s.File, section: s.Section, sum: s}
		}
		return out, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("dataset: reading snapshot directory %s: %w", dir, err)
	}
	byIdx := map[string]map[int]string{sectionGames: {}, sectionUsers: {}, sectionGroups: {}}
	var out []segmentInfo
	for _, e := range entries {
		name := e.Name()
		if name == "header.jsonl" {
			out = append(out, segmentInfo{file: name, section: sectionHeader})
			continue
		}
		if !shardSegmentRe.MatchString(name) {
			continue // manifests, temp files, foreign clutter
		}
		dash := strings.LastIndexByte(name, '-')
		section := name[:dash]
		idx, err := strconv.Atoi(strings.TrimSuffix(name[dash+1:], ".jsonl"))
		if err != nil {
			continue
		}
		byIdx[section][idx] = name
	}
	// Header first (if present), then sections in canonical order.
	sort.SliceStable(out, func(a, b int) bool { return out[a].section == sectionHeader })
	for _, section := range []string{sectionGames, sectionUsers, sectionGroups} {
		files := byIdx[section]
		for idx := 0; idx < len(files); idx++ {
			name, ok := files[idx]
			if !ok {
				return nil, fmt.Errorf("dataset: %s: segment %s missing (found %d %s segments with a gap)",
					dir, shardFileName(section, idx), len(files), section)
			}
			out = append(out, segmentInfo{file: name, section: section})
		}
	}
	return out, nil
}
