package dataset

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// mergePartA/B overlap on user 2, game 20 and group 7, so the merge
// exercises supersession, value replacement and member-set union.
func mergePartA() *Snapshot {
	return &Snapshot{
		CollectedAt: 100,
		Users: []UserRecord{
			{SteamID: 1, Country: "DE"},
			{SteamID: 2, Country: "US", Games: []OwnershipRecord{{AppID: 10, TotalMinutes: 60}}},
			{SteamID: 3},
		},
		Games: []GameRecord{
			{AppID: 10, Name: "Alpha", Type: "game"},
			{AppID: 20, Name: "Beta", Type: "game"},
		},
		Groups: []GroupRecord{
			{GID: 7, Name: "seven", Members: []uint64{1, 2}},
			{GID: 9, Members: []uint64{3}},
		},
	}
}

func mergePartB() *Snapshot {
	return &Snapshot{
		CollectedAt: 200,
		Users: []UserRecord{
			{SteamID: 2, Country: "FR", Games: []OwnershipRecord{{AppID: 20, TotalMinutes: 90}}},
			{SteamID: 4},
		},
		Games: []GameRecord{
			{AppID: 20, Name: "Beta (updated)", Type: "game"},
			{AppID: 30, Name: "Gamma", Type: "dlc"},
		},
		Groups: []GroupRecord{
			{GID: 7, Type: "public", Members: []uint64{2, 3}},
			{GID: 8, Members: []uint64{4}},
		},
	}
}

// mergeReference runs the in-memory path and saves it as the byte-level
// ground truth for the streaming merge.
func mergeReference(t *testing.T, dir string, parts ...*Snapshot) string {
	t.Helper()
	merged, err := MergeAt(7, parts)
	if err != nil {
		t.Fatal(err)
	}
	ref := filepath.Join(dir, "ref.jsonl")
	if err := merged.Save(ref); err != nil {
		t.Fatal(err)
	}
	return ref
}

func readFileT(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The streaming k-way merge must be byte-identical to load-all + MergeAt
// + Save, manifest included.
func TestMergeFilesAtMatchesMergeAt(t *testing.T) {
	dir := t.TempDir()
	a, b := mergePartA(), mergePartB()
	pa, pb := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	if err := a.Save(pa); err != nil {
		t.Fatal(err)
	}
	if err := b.Save(pb); err != nil {
		t.Fatal(err)
	}
	ref := mergeReference(t, dir, a, b)

	got := filepath.Join(dir, "got.jsonl")
	if err := MergeFilesAt(7, got, []string{pa, pb}); err != nil {
		t.Fatal(err)
	}
	if string(readFileT(t, got)) != string(readFileT(t, ref)) {
		t.Fatal("streaming merge bytes differ from in-memory merge")
	}
	gm, err := ReadManifest(got)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := ReadManifest(ref)
	if err != nil {
		t.Fatal(err)
	}
	if gm.FileSHA256 != rm.FileSHA256 || !reflect.DeepEqual(gm.Sections, rm.Sections) {
		t.Fatal("streaming merge manifest differs from in-memory merge")
	}
}

// Sharded parts merge through the same streaming pass, and a sharded
// output's manifest SHA-256 (the hash of the concatenated segment
// stream) equals the single-file merge's — the layouts are
// interchangeable at the artifact-identity level.
func TestMergeFilesAtShardedPartsAndOutput(t *testing.T) {
	dir := t.TempDir()
	a, b := mergePartA(), mergePartB()
	pa, pb := filepath.Join(dir, "a.d"), filepath.Join(dir, "b.jsonl")
	if err := a.Save(pa, WithShardRecords(2)); err != nil {
		t.Fatal(err)
	}
	if err := b.Save(pb); err != nil {
		t.Fatal(err)
	}
	ref := mergeReference(t, dir, a, b)
	rm, err := ReadManifest(ref)
	if err != nil {
		t.Fatal(err)
	}

	got := filepath.Join(dir, "got.d")
	if err := MergeFilesAt(7, got, []string{pa, pb}, WithShardRecords(2)); err != nil {
		t.Fatal(err)
	}
	gm, err := ReadManifest(got)
	if err != nil {
		t.Fatal(err)
	}
	if gm.FileSHA256 != rm.FileSHA256 {
		t.Fatalf("sharded merge stream SHA %s, single-file merge %s", gm.FileSHA256, rm.FileSHA256)
	}
	if !reflect.DeepEqual(gm.Sections, rm.Sections) {
		t.Fatal("section sums diverge across layouts")
	}

	// MergeAt over loaded sharded parts is the same snapshot again.
	la, err := Load(pa)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := Load(pb)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := MergeAt(7, []*Snapshot{la, lb})
	if err != nil {
		t.Fatal(err)
	}
	fromFiles, err := Load(got)
	if err != nil {
		t.Fatal(err)
	}
	if merged.ContentSignature() != fromFiles.ContentSignature() {
		t.Fatal("MergeAt over sharded parts diverges from streaming file merge")
	}
}

// An unsorted part cannot be deduplicated at the stream heads; the merge
// must fall back to the load-all path and still produce the reference
// bytes.
func TestMergeFilesAtUnsortedPartFallsBack(t *testing.T) {
	dir := t.TempDir()
	a := mergePartA()
	c := &Snapshot{
		CollectedAt: 200,
		Users:       []UserRecord{{SteamID: 5}, {SteamID: 4}},
		Games:       []GameRecord{{AppID: 30, Name: "Gamma"}},
	}
	pa, pc := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "c.jsonl")
	if err := a.Save(pa); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(pc); err != nil {
		t.Fatal(err)
	}
	ref := mergeReference(t, dir, a, c)

	got := filepath.Join(dir, "got.jsonl")
	if err := MergeFilesAt(7, got, []string{pa, pc}); err != nil {
		t.Fatal(err)
	}
	if string(readFileT(t, got)) != string(readFileT(t, ref)) {
		t.Fatal("fallback merge bytes differ from in-memory merge")
	}
}

// A part whose disorder only shows in its last section is caught after
// the streaming merge has already written games and users: the half
// written output is discarded and the load-all merge produces the
// reference bytes.
func TestMergeFilesAtLateUnsortedPartFallsBack(t *testing.T) {
	dir := t.TempDir()
	a := mergePartA()
	c := &Snapshot{
		CollectedAt: 200,
		Users:       []UserRecord{{SteamID: 4}, {SteamID: 5}},
		Games:       []GameRecord{{AppID: 30, Name: "Gamma"}},
		Groups:      []GroupRecord{{GID: 9, Name: "late"}, {GID: 8, Name: "early"}},
	}
	pa, pc := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "c.jsonl.gz")
	if err := a.Save(pa); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(pc); err != nil {
		t.Fatal(err)
	}
	ref := mergeReference(t, dir, a, c)

	got := filepath.Join(dir, "got.jsonl")
	if err := MergeFilesAt(7, got, []string{pa, pc}); err != nil {
		t.Fatal(err)
	}
	if string(readFileT(t, got)) != string(readFileT(t, ref)) {
		t.Fatal("fallback merge bytes differ from in-memory merge")
	}
}

// The unsorted fallback reports merged counts only, non-decreasing per
// section: the parts load without the caller's progress, so users
// progress never restarts per part, and the rewrite after a late
// disorder (in groups, once the streaming attempt has reported the users
// total) never reports less than that attempt did.
func TestMergeFilesAtFallbackProgressMonotone(t *testing.T) {
	many := &Snapshot{}
	for id := uint64(1); id <= jsonlChunk+88; id++ {
		many.Users = append(many.Users, UserRecord{SteamID: id})
	}
	for _, c := range []struct {
		name   string
		a, b   *Snapshot
		wantUs int
	}{
		{"unsorted users",
			&Snapshot{Users: []UserRecord{{SteamID: 1}, {SteamID: 2}, {SteamID: 3}}},
			&Snapshot{Users: []UserRecord{{SteamID: 5}, {SteamID: 4}}}, 5},
		{"unsorted groups",
			many,
			&Snapshot{Groups: []GroupRecord{{GID: 7}, {GID: 9}, {GID: 8}}}, len(many.Users)},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			pa, pb := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
			if err := c.a.Save(pa); err != nil {
				t.Fatal(err)
			}
			if err := c.b.Save(pb); err != nil {
				t.Fatal(err)
			}
			var users []int
			progress := WithProgress(func(section string, records int) {
				if section == "users" {
					users = append(users, records)
				}
			})
			if err := MergeFilesAt(7, filepath.Join(dir, "got.jsonl"), []string{pa, pb}, progress); err != nil {
				t.Fatal(err)
			}
			if len(users) == 0 || users[len(users)-1] != c.wantUs || !slices.IsSorted(users) {
				t.Fatalf("users progress %v, want non-decreasing and ending at %d", users, c.wantUs)
			}
		})
	}
}

// A merge whose winning record violates the snapshot invariants fails
// with MergeAt's exact error and leaves no output behind.
func TestMergeFilesAtInvalidResult(t *testing.T) {
	dir := t.TempDir()
	a := mergePartA()
	bad := &Snapshot{
		CollectedAt: 200,
		Users: []UserRecord{{SteamID: 6, Games: []OwnershipRecord{
			{AppID: 10, TotalMinutes: 1}, {AppID: 10, TotalMinutes: 2},
		}}},
	}
	pa, pbad := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "bad.jsonl")
	if err := a.Save(pa); err != nil {
		t.Fatal(err)
	}
	if err := bad.Save(pbad); err != nil {
		t.Fatal(err)
	}
	_, wantErr := MergeAt(7, []*Snapshot{a, bad})
	if wantErr == nil {
		t.Fatal("reference merge unexpectedly valid")
	}

	got := filepath.Join(dir, "got.jsonl")
	err := MergeFilesAt(7, got, []string{pa, pbad})
	if err == nil {
		t.Fatal("expected invalid-result error")
	}
	if err.Error() != wantErr.Error() {
		t.Fatalf("error mismatch:\nstreaming %v\nin-memory %v", err, wantErr)
	}
	if !strings.Contains(err.Error(), "merge produced an invalid snapshot") {
		t.Fatalf("unexpected error: %v", err)
	}
	if _, statErr := os.Stat(got); !os.IsNotExist(statErr) {
		t.Fatal("failed merge left output behind")
	}
}

func TestMergeFilesAtEmptyParts(t *testing.T) {
	if err := MergeFilesAt(7, filepath.Join(t.TempDir(), "out.jsonl"), nil); err == nil {
		t.Fatal("expected error for empty part list")
	}
}
