// Out-of-core Table 4. StandardTable4Inputs needs Extract's Vectors — a
// fully loaded snapshot plus the friendship graph. At paper scale the
// snapshot does not fit in memory, so StreamTable4Inputs fills the same
// columns from the streaming section readers instead: one pass over the
// catalog (prices), one over the users (attribute columns and per-year
// friend counts), one over the groups (sizes). Only the positive-valued
// Table 4 vectors are materialized — for a sharded snapshot directory
// the working set is the vectors plus a bounded decode window.

package analysis

import (
	"steamstudy/internal/dataset"
)

// StreamTable4Inputs builds exactly StandardTable4Inputs' row set — same
// names, order, data values and FixedXmin policy — by streaming the
// snapshot at path (and optionally a second snapshot) instead of loading
// it. The snapshot must be referentially clean: the per-user friend
// lists stand in for graph degrees, which matches the graph-based path
// only when friendships are symmetric with agreeing timestamps (fsck
// verifies exactly that).
func StreamTable4Inputs(path, secondPath string, years []int) ([]Table4Input, error) {
	c, err := streamT4Columns(path, years)
	if err != nil {
		return nil, err
	}
	var c2 *t4Columns
	if secondPath != "" {
		if c2, err = streamT4Columns(secondPath, nil); err != nil {
			return nil, err
		}
	}
	return table4Rows(c, c2, years), nil
}

// streamT4Columns is the streaming column producer (see vectorColumns
// for why it is not the in-memory one).
func streamT4Columns(path string, years []int) (*t4Columns, error) {
	// Catalog pass: storefront prices for the market-value column.
	price := make(map[uint32]int64)
	err := eachRecord(path, dataset.SectionGames, func(rec *dataset.Record) {
		price[rec.Game.AppID] = rec.Game.PriceCents
	})
	if err != nil {
		return nil, err
	}

	c := &t4Columns{
		through: make([][]float64, len(years)),
		only:    make([][]float64, len(years)),
	}
	// Year window bounds, precomputed: "through y" counts edges formed
	// strictly before end-of-year (DegreesAt), "y only" those within the
	// year (DegreesAdded).
	hiCut := make([]int64, len(years))
	loCut := make([]int64, len(years))
	for yi, y := range years {
		hiCut[yi] = endOfYear(y)
		loCut[yi] = endOfYear(y - 1)
	}

	err = eachRecord(path, dataset.SectionUsers, func(rec *dataset.Record) {
		a := attrsOf(&rec.User, price)
		appendPositive(&c.valueD, a.valueD)
		appendPositive(&c.totalH, a.totalH)
		appendPositive(&c.twoWkH, a.twoWkH)
		appendPositive(&c.games, a.games)
		appendPositive(&c.played, a.played)
		appendPositive(&c.groups, a.groups)
		for yi := range years {
			through, within := 0, 0
			for _, f := range rec.User.Friends {
				if f.Since < hiCut[yi] {
					through++
					if f.Since >= loCut[yi] {
						within++
					}
				}
			}
			appendPositive(&c.through[yi], float64(through))
			appendPositive(&c.only[yi], float64(within))
		}
	})
	if err != nil {
		return nil, err
	}

	err = eachRecord(path, dataset.SectionGroups, func(rec *dataset.Record) {
		appendPositive(&c.sizes, float64(len(rec.Group.Members)))
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// eachRecord passes every record of one section of the snapshot at path
// to fn.
func eachRecord(path, section string, fn func(*dataset.Record)) error {
	r, err := dataset.OpenSection(path, section)
	if err != nil {
		return err
	}
	var rec dataset.Record
	for {
		ok, err := r.Next(&rec)
		if err != nil {
			r.Close()
			return err
		}
		if !ok {
			return r.Close()
		}
		fn(&rec)
	}
}

// appendPositive appends x to *col when x > 0, as nonZero would keep it.
func appendPositive(col *[]float64, x float64) {
	if x > 0 {
		*col = append(*col, x)
	}
}
