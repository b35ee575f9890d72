// The record source. Every walk over a snapshot's records reads a
// sectionSource: opening a section ("games", "users" or "groups") yields
// an iterator with the Reader's own Next, CollectedAt and Close. The
// producers, and how long a yielded record's lists stay valid:
//
//	fileSections     the Reader: per-chunk slabs, kept as long as wanted
//	Snapshot.source  the in-memory slices: aliased, never to be mutated
//	universeSource   a universe's slabs (writeuniverse.go): scratch,
//	                 overwritten by the next Next
//	mergeSources     the k-way merge (merge.go): the winning part's, or
//	                 a fresh union of a group's member sets
//
// Consumers open sections in writerSections order (fsck reads groups
// twice): writeSource drains a source into a Writer, Snapshot.collect
// collects one, fsckScan checks one and mergeSources merges several.

package dataset

import (
	"fmt"
	"slices"
)

// recordIter streams one section's records in order. *Reader is one.
type recordIter interface {
	Next(rec *Record) (bool, error)
	CollectedAt() int64
	Close() error
}

// sectionSource opens one section of a record set, any number of times.
type sectionSource func(section string) (recordIter, error)

// sectionKind maps a section name to the kind of its records.
func sectionKind(section string) (RecordKind, error) {
	if i := slices.Index(writerSections[:], section); i >= 0 {
		return RecordKind(i + 1), nil
	}
	return 0, fmt.Errorf("dataset: unknown snapshot section %q", section)
}

// fileSections is the file producer. verify selects the Reader's
// integrity mode (see openReader); o's progress is reported from the
// first read of each section only, so its counts never decrease.
func fileSections(path string, verify bool, o options) sectionSource {
	read := map[string]bool{}
	return func(section string) (recordIter, error) {
		if _, err := sectionKind(section); err != nil {
			return nil, err
		}
		var ro options
		if !read[section] {
			read[section] = true
			ro.progress = o.progress
		}
		r, err := openReader(path, section, verify, ro)
		if err != nil {
			return nil, err
		}
		return r, nil
	}
}

// snapshotIter is the in-memory producer's cursor over one section.
type snapshotIter struct {
	s       *Snapshot
	kind    RecordKind
	i, size int
}

// source is the in-memory producer.
func (s *Snapshot) source(section string) (recordIter, error) {
	kind, err := sectionKind(section)
	if err != nil {
		return nil, err
	}
	size := [...]int{len(s.Games), len(s.Users), len(s.Groups)}[kind-1]
	return &snapshotIter{s: s, kind: kind, size: size}, nil
}

func (it *snapshotIter) Next(rec *Record) (bool, error) {
	if it.i == it.size {
		return false, nil
	}
	rec.Kind = it.kind
	switch it.kind {
	case KindGame:
		rec.Game = it.s.Games[it.i]
	case KindUser:
		rec.User = it.s.Users[it.i]
	default:
		rec.Group = it.s.Groups[it.i]
	}
	it.i++
	return true, nil
}

func (it *snapshotIter) CollectedAt() int64 { return it.s.CollectedAt }
func (it *snapshotIter) Close() error       { return nil }

// forEach passes every record it yields to fn, stopping at the first
// error.
func forEach(it recordIter, fn func(*Record) error) error {
	var rec Record
	for {
		ok, err := it.Next(&rec)
		if err != nil || !ok {
			return err
		}
		if err := fn(&rec); err != nil {
			return err
		}
	}
}

// each passes one section of src to fn and returns the section's
// CollectedAt.
func each(src sectionSource, section string, fn func(*Record) error) (int64, error) {
	it, err := src(section)
	if err != nil {
		return 0, err
	}
	defer it.Close()
	err = forEach(it, fn)
	return it.CollectedAt(), err
}

// writeSource drains every section of src into a new snapshot at path,
// stamped collectedAt. On error nothing is published.
func writeSource(path string, collectedAt int64, src sectionSource, opts []Option) error {
	w, err := NewWriter(path, collectedAt, opts...)
	if err != nil {
		return err
	}
	defer w.Abort()
	for _, section := range writerSections {
		if _, err := each(src, section, w.writeRecord); err != nil {
			return err
		}
	}
	_, err = w.Close()
	return err
}

// collect appends every section of src to s, passing each record through
// keep first when keep is non-nil.
func (s *Snapshot) collect(src sectionSource, keep func(*Record)) error {
	for _, section := range writerSections {
		_, err := each(src, section, func(rec *Record) error {
			if keep != nil {
				keep(rec)
			}
			return s.add(rec)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// add appends rec to its section of s.
func (s *Snapshot) add(rec *Record) error {
	switch rec.Kind {
	case KindGame:
		s.Games = append(s.Games, rec.Game)
	case KindUser:
		s.Users = append(s.Users, rec.User)
	case KindGroup:
		s.Groups = append(s.Groups, rec.Group)
	}
	return nil
}
