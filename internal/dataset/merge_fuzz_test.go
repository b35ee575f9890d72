package dataset

import (
	"cmp"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"steamstudy/internal/simworld"
)

// mergeFuzzBase is a small valid snapshot with every section sorted by
// key and every group's member list sorted, so that a member list split
// over several copies of its group unions back to itself. It ends with a
// member-less group, whose copies must merge back to a null list.
func mergeFuzzBase() *Snapshot {
	cfg := simworld.DefaultConfig(120)
	cfg.CatalogSize = 30
	s := FromUniverse(simworld.MustGenerate(cfg, 9))
	slices.SortFunc(s.Games, func(a, b GameRecord) int { return cmp.Compare(a.AppID, b.AppID) })
	slices.SortFunc(s.Users, func(a, b UserRecord) int { return cmp.Compare(a.SteamID, b.SteamID) })
	slices.SortFunc(s.Groups, func(a, b GroupRecord) int { return cmp.Compare(a.GID, b.GID) })
	for i := range s.Groups {
		slices.Sort(s.Groups[i].Members)
	}
	last := s.Groups[len(s.Groups)-1]
	s.Groups = append(s.Groups, GroupRecord{GID: last.GID + 1, Name: "empty", Type: last.Type})
	return s
}

// splitParts splits base into 1–4 parts. A record goes to each part with
// probability 1/3; with cover set, one that would go nowhere goes to one
// part, and without it, it is dropped. Users and games may repeat within
// a part, and their copies in parts before the last one holding them may
// be stale. A group's members are spread over its copies, which may repeat
// within a part, and its copies outside the first part holding it may
// lack Name and Type. Each part's sections are then either kept sorted or
// shuffled.
func splitParts(base *Snapshot, rng *rand.Rand, cover bool) []*Snapshot {
	parts := make([]*Snapshot, 1+rng.Intn(4))
	for i := range parts {
		parts[i] = &Snapshot{CollectedAt: int64(rng.Intn(1000))}
	}
	// holders picks the parts a record goes to, in ascending order; a part
	// listed twice holds two copies.
	holders := func() []int {
		var at []int
		for i := range parts {
			if rng.Intn(3) == 0 {
				at = append(at, i)
				if rng.Intn(6) == 0 {
					at = append(at, i)
				}
			}
		}
		if len(at) == 0 && cover {
			at = []int{rng.Intn(len(parts))}
		}
		return at
	}
	for _, g := range base.Games {
		at := holders()
		for _, p := range at {
			rec := g
			if p < at[len(at)-1] && rng.Intn(2) == 0 {
				rec.Name = "stale " + g.Name
			}
			parts[p].Games = append(parts[p].Games, rec)
		}
	}
	for _, u := range base.Users {
		at := holders()
		stale := u
		stale.Country, stale.Games = "stale", u.Games[:len(u.Games)/2]
		for _, p := range at {
			rec := u
			if p < at[len(at)-1] && rng.Intn(2) == 0 {
				rec = stale
			}
			parts[p].Users = append(parts[p].Users, rec)
		}
	}
	for _, g := range base.Groups {
		at := holders()
		if len(at) == 0 {
			continue
		}
		copies := make([]GroupRecord, len(at))
		for k, p := range at {
			copies[k] = GroupRecord{GID: g.GID, Name: g.Name, Type: g.Type}
			if p != at[0] && rng.Intn(2) == 0 {
				copies[k].Name, copies[k].Type = "", ""
			}
		}
		if len(at) == 1 {
			copies[0].Members = g.Members
		} else {
			for _, m := range g.Members {
				k := rng.Intn(len(copies))
				copies[k].Members = append(copies[k].Members, m)
			}
		}
		for k, p := range at {
			parts[p].Groups = append(parts[p].Groups, copies[k])
		}
	}
	for _, p := range parts {
		if rng.Intn(2) == 0 {
			rng.Shuffle(len(p.Games), func(i, j int) { p.Games[i], p.Games[j] = p.Games[j], p.Games[i] })
			rng.Shuffle(len(p.Users), func(i, j int) { p.Users[i], p.Users[j] = p.Users[j], p.Users[i] })
			rng.Shuffle(len(p.Groups), func(i, j int) { p.Groups[i], p.Groups[j] = p.Groups[j], p.Groups[i] })
		}
	}
	return parts
}

// manifestSHA returns the FileSHA256 of path's manifest.
func manifestSHA(t *testing.T, path string) string {
	t.Helper()
	m, err := ReadManifest(path)
	if err != nil || m == nil {
		t.Fatalf("%s: manifest %v, %v", path, m, err)
	}
	return m.FileSHA256
}

// FuzzMergeSplits splits one snapshot into parts from a fuzzer-chosen
// seed and holds the merge to three properties: MergeAt and MergeFilesAt
// (over .jsonl and .d parts, sorted or not, into either layout) produce
// the same manifest SHA; parts that cover the snapshot merge back to its
// bytes; and MergeAt leaves its parts unmodified. Seeds:
// testdata/fuzz/FuzzMergeSplits.
func FuzzMergeSplits(f *testing.F) {
	base := mergeFuzzBase()
	for seed := uint64(0); seed < 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		rng := rand.New(rand.NewSource(int64(seed)))
		cover := rng.Intn(4) != 0
		parts := splitParts(base, rng, cover)
		before := make([][]byte, len(parts))
		for i, p := range parts {
			before[i] = stdlibJSONL(t, p)
		}
		const at = 1_400_000_000
		merged, mergeErr := MergeAt(at, parts)
		for i, p := range parts {
			if string(stdlibJSONL(t, p)) != string(before[i]) {
				t.Fatalf("seed %d: MergeAt modified part %d", seed, i)
			}
		}

		dir := t.TempDir()
		paths := make([]string, len(parts))
		for i, p := range parts {
			paths[i] = filepath.Join(dir, "part"+string(rune('a'+i))+[]string{".jsonl", ".d"}[rng.Intn(2)])
			if err := p.Save(paths[i], WithShardRecords(1+rng.Intn(8))); err != nil {
				t.Fatal(err)
			}
		}
		out := filepath.Join(dir, "out"+[]string{".jsonl", ".d"}[rng.Intn(2)])
		fileErr := MergeFilesAt(at, out, paths, WithShardRecords(1+rng.Intn(8)))
		if mergeErr != nil || fileErr != nil {
			if mergeErr == nil || fileErr == nil || mergeErr.Error() != fileErr.Error() {
				t.Fatalf("seed %d: MergeAt error %v, MergeFilesAt error %v", seed, mergeErr, fileErr)
			}
			return
		}
		ref := filepath.Join(dir, "ref.jsonl")
		if err := merged.Save(ref); err != nil {
			t.Fatal(err)
		}
		want := manifestSHA(t, ref)
		if got := manifestSHA(t, out); got != want {
			t.Fatalf("seed %d: MergeFilesAt SHA %s, MergeAt %s", seed, got, want)
		}
		if !cover {
			return
		}
		whole := *base
		whole.CollectedAt = at
		orig := filepath.Join(dir, "orig.jsonl")
		if err := whole.Save(orig); err != nil {
			t.Fatal(err)
		}
		if got := manifestSHA(t, orig); got != want {
			t.Fatalf("seed %d: covering parts merge to SHA %s, the snapshot is %s", seed, want, got)
		}
	})
}
