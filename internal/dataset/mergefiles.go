// Out-of-core merge. MergeAt needs every part decoded in memory at once;
// at paper scale the parts are tens of gigabytes each, so MergeFilesAt
// merges on disk instead: one k-way pass per section over the parts'
// streaming readers, deduplicating against only the records currently at
// the heads of the streams. The pass requires each part's sections sorted
// by record ID — which every snapshot this package writes satisfies,
// because Merge sorts and the generator emits in ID order. A part that
// turns out unsorted mid-stream demotes the whole merge to the load-all
// path, trading memory for correctness on foreign data.
//
// The result is byte-identical to Load-all + MergeAt + Save: same winner
// per duplicate key (last occurrence in part-major order), same group
// member-set unions, same validation failure on invalid output.

package dataset

import (
	"errors"
	"fmt"
)

// errUnsortedPart demotes the streaming merge to the load-all path.
var errUnsortedPart = errors.New("part not sorted by record ID")

// MergeFilesAt merges the snapshot files at parts into out, stamped with
// collectedAt, deduplicating exactly like MergeAt: the latest part's
// record wins per SteamID/AppID, group member sets union. Parts with
// ID-sorted sections (every file this package writes) merge in one
// streaming pass holding only the stream heads; unsorted parts fall back
// to loading everything, preserving behavior at a memory cost.
//
// Options apply to out's encoding (WithShardRecords for a .d directory)
// and to the fallback path's decode; WithProgress reports per-section
// merged record counts.
func MergeFilesAt(collectedAt int64, out string, parts []string, opts ...Option) error {
	if len(parts) == 0 {
		return fmt.Errorf("dataset: nothing to merge")
	}
	err := mergeFilesStreaming(collectedAt, out, parts, opts)
	if errors.Is(err, errUnsortedPart) {
		return mergeFilesLoaded(collectedAt, out, parts, opts)
	}
	return err
}

// mergeFilesLoaded is the reference path: decode every part, MergeAt,
// Save. Unsorted parts land here.
func mergeFilesLoaded(collectedAt int64, out string, parts []string, opts []Option) error {
	loaded := make([]*Snapshot, len(parts))
	for i, p := range parts {
		s, err := Load(p, opts...)
		if err != nil {
			return err
		}
		loaded[i] = s
	}
	merged, err := MergeAt(collectedAt, loaded, opts...)
	if err != nil {
		return err
	}
	return merged.Save(out, opts...)
}

// mergeStream is one part's cursor through a section.
type mergeStream struct {
	r   *Reader
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
	ok, err := ms.r.Next(&ms.rec)
	if err != nil {
		return err
	}
	if !ok {
		ms.ok = false
		return nil
	}
	ms.key = mergeKey(&ms.rec)
	ms.ok = true
	if had && ms.key < prev {
		return fmt.Errorf("dataset: %s: %w", ms.r.path, errUnsortedPart)
	}
	return nil
}

// mergeFilesStreaming writes the merge through a Writer, whose progress
// reports are the per-section merged record counts.
func mergeFilesStreaming(collectedAt int64, out string, parts []string, opts []Option) error {
	w, err := NewWriter(out, collectedAt, opts...)
	if err != nil {
		return err
	}
	defer w.Abort()

	for _, section := range writerSections {
		err := mergeSection(parts, section, func(rec *Record) error {
			switch rec.Kind {
			case KindGame:
				return w.WriteGame(&rec.Game)
			case KindGroup:
				return w.WriteGroup(&rec.Group)
			default:
				// The in-memory path validates the merged snapshot before
				// writing; the per-user invariants are the only ones a
				// deduplicated merge can still violate, so check them at
				// emit with MergeAt's exact failure.
				u := &rec.User
				seen := make(map[uint32]bool, len(u.Games))
				for _, g := range u.Games {
					if seen[g.AppID] {
						return mergeInvalid("dataset: user %d owns app %d twice", u.SteamID, g.AppID)
					}
					seen[g.AppID] = true
					if int64(g.TwoWeekMinutes) > g.TotalMinutes {
						return mergeInvalid("dataset: user %d app %d two-week exceeds lifetime", u.SteamID, g.AppID)
					}
					if g.TotalMinutes < 0 || g.TwoWeekMinutes < 0 {
						return mergeInvalid("dataset: user %d app %d negative playtime", u.SteamID, g.AppID)
					}
				}
				return w.WriteUser(u)
			}
		})
		if err != nil {
			return err
		}
	}
	_, err = w.Close()
	return err
}

func mergeInvalid(format string, args ...any) error {
	return fmt.Errorf("dataset: merge produced an invalid snapshot: %w", fmt.Errorf(format, args...))
}

// mergeSection k-way merges one section across the parts and emits the
// deduplicated records in ascending key order.
func mergeSection(parts []string, section string, emit func(*Record) error) error {
	streams := make([]*mergeStream, len(parts))
	closeAll := func() {
		for _, ms := range streams {
			if ms != nil {
				ms.r.Close()
			}
		}
	}
	defer closeAll()
	for i, p := range parts {
		r, err := OpenSection(p, section)
		if err != nil {
			return err
		}
		streams[i] = &mergeStream{r: r}
		if err := streams[i].advance(); err != nil {
			return err
		}
	}

	for {
		// Lowest key across the stream heads; k is a fleet's part count,
		// small enough that a linear scan beats heap bookkeeping.
		best := -1
		for i, ms := range streams {
			if ms.ok && (best < 0 || ms.key < streams[best].key) {
				best = i
			}
		}
		if best < 0 {
			return nil
		}
		key := streams[best].key

		// Drain every occurrence of key in part-major, record-minor order
		// — exactly the encounter order of the in-memory merge, where the
		// last occurrence supersedes and group members union in sorted-set
		// form (order-insensitive).
		var winner Record
		var groups []GroupRecord
		for i := best; i < len(streams); i++ {
			ms := streams[i]
			for ms.ok && ms.key == key {
				if ms.rec.Kind == KindGroup {
					groups = append(groups, ms.rec.Group)
				}
				winner = ms.rec
				if err := ms.advance(); err != nil {
					return err
				}
			}
		}
		if len(groups) > 1 {
			g := groups[0]
			for _, occ := range groups[1:] {
				g.Members = unionUint64(g.Members, occ.Members)
				if g.Type == "" {
					g.Type = occ.Type
				}
				if g.Name == "" {
					g.Name = occ.Name
				}
			}
			winner.Group = g
		}
		if err := emit(&winner); err != nil {
			return err
		}
	}
}
