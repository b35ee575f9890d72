package dataset

import (
	"path/filepath"
	"reflect"
	"testing"

	"steamstudy/internal/simworld"
)

// drainSection collects one section of src, cloning each record's lists
// so scratch-backed producers can be compared too.
func drainSection(t *testing.T, src sectionSource, section string) ([]Record, int64) {
	t.Helper()
	var recs []Record
	at, err := each(src, section, func(rec *Record) error {
		r := *rec
		r.cloneLists()
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", section, err)
	}
	return recs, at
}

// Every producer of the record source yields the same records, in the
// same order, with the same CollectedAt: the universe cursor, the
// snapshot cursor over FromUniverse's copy, and the Reader over either
// layout of that snapshot. Each section may be opened again.
func TestSourceProducersAgree(t *testing.T) {
	cfg := simworld.DefaultConfig(300)
	cfg.CatalogSize = 40
	uni := simworld.MustGenerate(cfg, 4)
	snap := FromUniverse(uni)
	dir := t.TempDir()
	single, sharded := filepath.Join(dir, "s.jsonl.gz"), filepath.Join(dir, "s.d")
	if err := snap.Save(single); err != nil {
		t.Fatal(err)
	}
	if err := snap.Save(sharded, WithShardRecords(64)); err != nil {
		t.Fatal(err)
	}
	producers := map[string]sectionSource{
		"snapshot": snap.source,
		"single":   fileSections(single, true, options{}),
		"sharded":  fileSections(sharded, true, options{}),
	}
	want := universeSource(uni)
	for _, section := range append(writerSections[:], sectionGroups) {
		wantRecs, wantAt := drainSection(t, want, section)
		if len(wantRecs) == 0 || wantAt != uni.CollectedAt {
			t.Fatalf("universe %s: %d records at %d", section, len(wantRecs), wantAt)
		}
		for name, src := range producers {
			got, at := drainSection(t, src, section)
			if at != wantAt || !reflect.DeepEqual(got, wantRecs) {
				t.Fatalf("%s %s: %d records at %d, universe has %d at %d", name, section, len(got), at, len(wantRecs), wantAt)
			}
		}
	}
	for name, src := range map[string]sectionSource{"universe": want, "snapshot": snap.source, "file": producers["single"]} {
		if _, err := src("header"); err == nil {
			t.Errorf("%s: opening an unknown section succeeded", name)
		}
	}
}
