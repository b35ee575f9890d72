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
	"slices"
)

// MergeFilesAt merges the snapshot files at parts into out, stamped with
// collectedAt, deduplicating exactly like MergeAt: the latest part's
// record wins per SteamID/AppID, group member sets union.
//
// Options apply to out's encoding (WithShardRecords for a .d directory);
// WithProgress reports per-section merged record counts. The parts are
// read without progress, and the unsorted fallback's rewrite reports no
// count below one the aborted streaming attempt already reported, so the
// counts stay non-decreasing.
func MergeFilesAt(collectedAt int64, out string, parts []string, opts ...Option) error {
	if len(parts) == 0 {
		return fmt.Errorf("dataset: nothing to merge")
	}
	if fn := buildOptions(opts).progress; fn != nil {
		high := map[string]int{}
		opts = append(slices.Clip(opts), WithProgress(func(section string, records int) {
			if records >= high[section] {
				high[section] = records
				fn(section, records)
			}
		}))
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
		s, err := Load(p)
		if err != nil {
			return err
		}
		srcs[i] = sortedByKey(s).source
	}
	return writeSource(out, collectedAt, mergeSources(srcs), opts)
}
