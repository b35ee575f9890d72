package dataset

import (
	"fmt"
	"sort"
)

// Merge combines partial snapshots into one, deduplicating by SteamID,
// AppID and GID. The paper's phase-2 crawl ran for six months across many
// sessions; merging lets partial crawls (different ID ranges, resumed
// runs, parallel crawlers) be combined into the final dataset. When the
// same user appears in several parts, the record from the latest part
// wins (a re-crawl supersedes an older observation). The merged
// CollectedAt is the latest of the parts'.
func Merge(parts ...*Snapshot) (*Snapshot, error) {
	return mergeParts(parts, nil)
}

func mergeParts(parts []*Snapshot, progress ProgressFunc) (*Snapshot, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("dataset: nothing to merge")
	}
	out := &Snapshot{}
	userAt := map[uint64]int{}
	gameAt := map[uint32]int{}
	groupAt := map[uint64]int{}
	for _, p := range parts {
		if p == nil {
			continue
		}
		if p.CollectedAt > out.CollectedAt {
			out.CollectedAt = p.CollectedAt
		}
		for i := range p.Users {
			u := p.Users[i]
			if at, ok := userAt[u.SteamID]; ok {
				out.Users[at] = u // later part supersedes
				continue
			}
			userAt[u.SteamID] = len(out.Users)
			out.Users = append(out.Users, u)
		}
		for i := range p.Games {
			g := p.Games[i]
			if at, ok := gameAt[g.AppID]; ok {
				out.Games[at] = g
				continue
			}
			gameAt[g.AppID] = len(out.Games)
			out.Games = append(out.Games, g)
		}
		for i := range p.Groups {
			g := p.Groups[i]
			if at, ok := groupAt[g.GID]; ok {
				// Union the member sets: different crawl parts see the
				// members they crawled.
				out.Groups[at].Members = unionUint64(out.Groups[at].Members, g.Members)
				if out.Groups[at].Type == "" {
					out.Groups[at].Type = g.Type
				}
				if out.Groups[at].Name == "" {
					out.Groups[at].Name = g.Name
				}
				continue
			}
			groupAt[g.GID] = len(out.Groups)
			out.Groups = append(out.Groups, g)
		}
		if progress != nil {
			progress("users", len(out.Users))
			progress("games", len(out.Games))
			progress("groups", len(out.Groups))
		}
	}
	sort.Slice(out.Users, func(a, b int) bool { return out.Users[a].SteamID < out.Users[b].SteamID })
	sort.Slice(out.Games, func(a, b int) bool { return out.Games[a].AppID < out.Games[b].AppID })
	sort.Slice(out.Groups, func(a, b int) bool { return out.Groups[a].GID < out.Groups[b].GID })
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("dataset: merge produced an invalid snapshot: %w", err)
	}
	return out, nil
}

// MergeAt merges like Merge but stamps the result with an explicit
// CollectedAt instead of the latest of the parts'. Deterministic pipelines
// (the fleet merge, repeatable tests) need the timestamp pinned so the
// merged file's bytes — and therefore its manifest SHA-256 — depend only
// on the crawled records.
//
// MergeAt shares the snapshot pipeline's single option set (see Option):
// WithProgress reports per-section merged record counts after each part
// folds in. The merged snapshot is identical for any combination of
// options.
func MergeAt(collectedAt int64, parts []*Snapshot, opts ...Option) (*Snapshot, error) {
	o := buildOptions(opts)
	out, err := mergeParts(parts, o.progress)
	if err != nil {
		return nil, err
	}
	out.CollectedAt = collectedAt
	return out, nil
}

func unionUint64(a, b []uint64) []uint64 {
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
