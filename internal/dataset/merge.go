// The merge. The paper's phase-2 crawl ran for six months across many
// sessions; merging lets partial crawls (different ID ranges, resumed
// runs, parallel crawlers) be combined into the final dataset. There is
// one algorithm, mergeSources: a k-way merge over record sources whose
// sections are sorted by record ID, holding only the records at the
// heads of the streams. MergeAt feeds it stably sorted in-memory parts;
// MergeFilesAt (mergefiles.go) feeds it file parts.

package dataset

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
)

// errUnsortedPart reports a part whose section is not sorted by record
// ID, which head-of-stream deduplication cannot merge.
var errUnsortedPart = errors.New("part not sorted by record ID")

// MergeAt combines partial snapshots into one stamped with collectedAt,
// deduplicating by SteamID, AppID and GID. When the same key appears more
// than once, the last occurrence in part order (record order within a
// part) wins — a re-crawl supersedes an older observation — except that a
// group's occurrences union their member sets and fill an empty Name or
// Type from later ones. Records come out sorted by key. Nil parts are
// skipped; the parts themselves are never modified. Deterministic
// pipelines (the fleet merge, repeatable tests) pin collectedAt so the
// merged file's bytes — and therefore its manifest SHA-256 — depend only
// on the crawled records.
func MergeAt(collectedAt int64, parts []*Snapshot) (*Snapshot, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("dataset: nothing to merge")
	}
	var srcs []sectionSource
	for _, p := range parts {
		if p != nil {
			srcs = append(srcs, sortedByKey(p).source)
		}
	}
	out := &Snapshot{CollectedAt: collectedAt}
	if err := out.collect(mergeSources(srcs), nil); err != nil {
		return nil, err
	}
	return out, nil
}

// sortedByKey returns p with each section stably sorted by record key,
// copying only the sections that are out of order.
func sortedByKey(p *Snapshot) *Snapshot {
	q := *p
	q.Games = sortedBy(p.Games, func(g *GameRecord) uint64 { return uint64(g.AppID) })
	q.Users = sortedBy(p.Users, func(u *UserRecord) uint64 { return u.SteamID })
	q.Groups = sortedBy(p.Groups, func(g *GroupRecord) uint64 { return g.GID })
	return &q
}

func sortedBy[T any](recs []T, key func(*T) uint64) []T {
	byKey := func(a, b T) int { return cmp.Compare(key(&a), key(&b)) }
	if slices.IsSortedFunc(recs, byKey) {
		return recs
	}
	recs = slices.Clone(recs)
	slices.SortStableFunc(recs, byKey)
	return recs
}

// mergeSources is the merge producer. Each part must yield its sections
// in ascending key order with records that outlive Next (files and
// snapshots, not the universe cursor); a part out of order fails with
// errUnsortedPart. Every merged user is checked with checkUser, failing
// with the error Snapshot.Validate would give the merged snapshot.
func mergeSources(parts []sectionSource) sectionSource {
	return func(section string) (recordIter, error) {
		m := &mergeIter{streams: make([]mergeStream, len(parts))}
		for i, part := range parts {
			it, err := part(section)
			if err != nil {
				m.Close()
				return nil, err
			}
			m.streams[i].it = it
			if err := m.streams[i].advance(); err != nil {
				m.Close()
				return nil, err
			}
		}
		return m, nil
	}
}

// mergeStream is one part's cursor through a section.
type mergeStream struct {
	it  recordIter
	rec Record
	key uint64
	ok  bool
}

func mergeKey(rec *Record) uint64 {
	switch rec.Kind {
	case KindGame:
		return uint64(rec.Game.AppID)
	case KindGroup:
		return rec.Group.GID
	default:
		return rec.User.SteamID
	}
}

// advance pulls the next record, watching for sort-order violations that
// would make head-of-stream deduplication unsound.
func (ms *mergeStream) advance() error {
	prev, had := ms.key, ms.ok
	ok, err := ms.it.Next(&ms.rec)
	if err != nil || !ok {
		ms.ok = false
		return err
	}
	ms.key, ms.ok = mergeKey(&ms.rec), true
	if had && ms.key < prev {
		return errUnsortedPart
	}
	return nil
}

// mergeIter k-way merges one section across the parts.
type mergeIter struct {
	streams []mergeStream
}

// Next yields the next key's merged record.
func (m *mergeIter) Next(rec *Record) (bool, error) {
	// Lowest key across the stream heads; k is a fleet's part count,
	// small enough that a linear scan beats heap bookkeeping.
	best := -1
	for i := range m.streams {
		if m.streams[i].ok && (best < 0 || m.streams[i].key < m.streams[best].key) {
			best = i
		}
	}
	if best < 0 {
		return false, nil
	}
	key := m.streams[best].key

	// Fold every occurrence of key in part-major, record-minor order.
	first := true
	for i := best; i < len(m.streams); i++ {
		ms := &m.streams[i]
		for ms.ok && ms.key == key {
			if first || ms.rec.Kind != KindGroup {
				*rec = ms.rec
			} else {
				g, occ := &rec.Group, &ms.rec.Group
				g.Members = unionUint64(g.Members, occ.Members)
				if g.Type == "" {
					g.Type = occ.Type
				}
				if g.Name == "" {
					g.Name = occ.Name
				}
			}
			first = false
			if err := ms.advance(); err != nil {
				return false, err
			}
		}
	}
	if rec.Kind == KindUser {
		if err := checkUser(&rec.User); err != nil {
			return false, fmt.Errorf("dataset: merge produced an invalid snapshot: %w", err)
		}
	}
	return true, nil
}

// CollectedAt is zero: whoever consumes a merge stamps it.
func (m *mergeIter) CollectedAt() int64 { return 0 }

// Close closes every part's iterator.
func (m *mergeIter) Close() error {
	var err error
	for i := range m.streams {
		if it := m.streams[i].it; it != nil {
			err = errors.Join(err, it.Close())
		}
	}
	return err
}

// unionUint64 returns the sorted union of a and b, nil when both are nil
// so that a member-less group merges to the null list it decoded from.
func unionUint64(a, b []uint64) []uint64 {
	if a == nil && b == nil {
		return nil
	}
	seen := make(map[uint64]struct{}, len(a)+len(b))
	out := make([]uint64, 0, len(a)+len(b))
	for _, v := range a {
		if _, ok := seen[v]; !ok {
			seen[v] = struct{}{}
			out = append(out, v)
		}
	}
	for _, v := range b {
		if _, ok := seen[v]; !ok {
			seen[v] = struct{}{}
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
