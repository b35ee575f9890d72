// Out-of-core merge. At paper scale the parts are tens of gigabytes each,
// so MergeFilesAt never loads them: it feeds the parts' Readers to the
// one k-way merge (merge.go) and drains the result into a Writer, holding
// only the records at the heads of the streams. That needs each part's
// sections sorted by record ID, which every snapshot this package writes
// satisfies, because the merge emits in key order and the generator
// emits in ID order. A part that turns out unsorted mid-stream makes the
// merge load every part and feed the same k-way merge their stably
// sorted copies, trading memory for correctness on foreign data.
//
// The result is byte-identical to Load-all + MergeAt + Save, invalid
// results included: the same merge runs either way.

package dataset

import (
	"errors"
	"fmt"
)

// MergeFilesAt merges the snapshot files at parts into out, stamped with
// collectedAt, deduplicating exactly like MergeAt: the latest part's
// record wins per SteamID/AppID, group member sets union.
//
// Options apply to out's encoding (WithShardRecords for a .d directory)
// and to the unsorted fallback's Load; WithProgress reports per-section
// merged record counts.
func MergeFilesAt(collectedAt int64, out string, parts []string, opts ...Option) error {
	if len(parts) == 0 {
		return fmt.Errorf("dataset: nothing to merge")
	}
	srcs := make([]sectionSource, len(parts))
	for i, p := range parts {
		srcs[i] = fileSections(p, true, options{})
	}
	err := writeSource(out, collectedAt, mergeSources(srcs), opts)
	if !errors.Is(err, errUnsortedPart) {
		return err
	}
	for i, p := range parts {
		s, err := Load(p, opts...)
		if err != nil {
			return err
		}
		srcs[i] = sortedByKey(s).source
	}
	return writeSource(out, collectedAt, mergeSources(srcs), opts)
}
