// The fsck checker. fsckScan runs every referential check as a few
// ordered passes over a record source (source.go) — a sharded directory
// streamed through the Reader, or a snapshot's in-memory slices —
// decoding each section of a directory at most twice:
//
//	games        catalog set, duplicate detection, canonical CRC
//	groups #1    member-set index (sorted copies), duplicates, CRC
//	users        SteamID census, canonical CRC, ownership/playtime/
//	             membership checks; collects friend IDs and membership
//	             pairs for the in-memory steps below
//	(memory)     duplicate-user; friend IDs resolved once against the
//	             census into the sorted edge index; self-friend /
//	             friend-unknown / friend-asymmetric in record order
//	groups #2    member-unknown / membership-asymmetric (group side)
//
// A directory's raw bytes (per-segment CRC-32C and byte counts, the
// concatenated SHA-256) are checked before the scan by verifyShardBytes.
// What stays resident is index data, not decoded records:
//
//	users        census IDs 8 B, sorted view 12 B (none when the stream is
//	             already in SteamID order), bucket directory 4 B,
//	             first-occurrence position 4 B, friend-list end offset 8 B,
//	             edge-row offset 4 B
//	friend edge  flat friend ID (then its census position) 8 B, packed
//	             edge-index entry 8 B
//	membership   packed (user, group) pair 8 B
//	group        sorted member copy 8 B per member, GID index entry
//
// At 5 M users and 3.7 directed edges per user that is about 140 MB for
// users (200 MB for an unsorted stream) and 300 MB for friend edges,
// before slice-growth slack: well inside the 2 GiB stage gate.
//
// Every violation class is emitted by one step in record order (the
// user-side membership-asymmetric emissions all precede the group-side
// ones), and Report keys samples per class, so per-class counts and
// sample prefixes equal those of a straightforward map-based checker —
// the property tests hold the scan to one. References resolve through
// first-occurrence indexes over the ID census, mirroring such a checker's
// maps (user index first-wins, group member sets last-wins, friend edges
// keyed by ID pairs).

package dataset

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// verifyShardBytes is VerifyFile for the sharded layout: every segment's
// raw bytes are checked against the manifest's per-shard byte count and
// CRC-32C, and the concatenated stream against FileBytes/FileSHA256.
// Damage localizes to a segment name; all failures land in r as
// ViolationFileHash.
func verifyShardBytes(dir string, man *Manifest, r *Report) {
	sha := sha256.New()
	var total int64
	for i := range man.Shards {
		s := &man.Shards[i]
		crc := crc32.New(castagnoli)
		f, err := os.Open(filepath.Join(dir, s.File))
		if err != nil {
			r.add(ViolationFileHash, "%v", fmt.Errorf("dataset: %s: segment %s: %v", dir, s.File, err))
			continue
		}
		n, err := io.Copy(io.MultiWriter(crc, sha), f)
		f.Close()
		total += n
		if err != nil {
			r.add(ViolationFileHash, "%v", fmt.Errorf("dataset: %s: segment %s: %v", dir, s.File, err))
			continue
		}
		if n != s.Bytes {
			r.add(ViolationFileHash, "dataset: %s: segment %s is %d bytes, manifest records %d (truncated or partially overwritten)",
				dir, s.File, n, s.Bytes)
		} else if got := crc.Sum32(); got != s.CRC32C {
			r.add(ViolationFileHash, "dataset: %s: segment %s checksum mismatch (file %08x, manifest %08x): on-disk corruption",
				dir, s.File, got, s.CRC32C)
		}
	}
	if total != man.FileBytes {
		r.add(ViolationFileHash, "dataset: %s is %d bytes, manifest records %d (truncated or partially overwritten)",
			dir, total, man.FileBytes)
	} else if got := hex.EncodeToString(sha.Sum(nil)); got != man.FileSHA256 {
		r.add(ViolationFileHash, "dataset: %s stream hash mismatch (got %s, manifest %s): on-disk corruption", dir, got, man.FileSHA256)
	}
}

// fsckScanState accumulates the referential scan.
type fsckScanState struct {
	users, games, groups int
	collectedAt          int64
	sums                 map[string]SectionSum // canonical section sums, when a manifest wants them
	sub                  *Report               // referential violations + RecordsVerified
}

// into completes r from a finished scan: section shape, the section
// checks against man (when non-nil), then the referential violations.
func (st *fsckScanState) into(r *Report, man *Manifest) {
	r.Users, r.Games, r.Groups = st.users, st.games, st.groups
	if man != nil {
		for _, v := range man.verifySections(st.collectedAt, st.sums) {
			r.addViolation(v)
		}
	}
	r.merge(st.sub)
}

// idCensus is the streaming stand-in for the in-memory userAt map: every
// streamed SteamID in record order, plus a (sorted id, position) view for
// binary-search lookups. For duplicate IDs find returns the first
// occurrence, matching userAt's first-wins insert.
//
// A bucket directory over the sorted view narrows each search: ID id
// falls in bucket (id-keys[0])>>shift, whose keys are
// keys[dir[b]:dir[b+1]]. There are about as many buckets as IDs, so a
// lookup searches a handful of keys instead of all of them. Equal IDs
// share a bucket, so the search still lands on the first of a run.
type idCensus struct {
	ids   []uint64 // stream order
	keys  []uint64 // sorted; aliases ids when the stream is already sorted
	pos   []int32  // keys[i] appeared at stream position pos[i]; nil when keys aliases ids
	dir   []int32  // bucket b holds keys[dir[b]:dir[b+1]]
	shift uint
}

// build derives the sorted view. Canonical snapshots store users in
// SteamID order, so the common case is a stream that is its own sorted
// view: BinarySearch lands on the first of any run of equal IDs, which is
// the first occurrence, and no position table is needed.
func (c *idCensus) build() {
	defer c.buildDir()
	if slices.IsSorted(c.ids) {
		c.keys, c.pos = c.ids, nil
		return
	}
	n := len(c.ids)
	c.pos = make([]int32, n)
	for i := range c.pos {
		c.pos[i] = int32(i)
	}
	sort.SliceStable(c.pos, func(a, b int) bool { return c.ids[c.pos[a]] < c.ids[c.pos[b]] })
	c.keys = make([]uint64, n)
	for i, p := range c.pos {
		c.keys[i] = c.ids[p]
	}
}

// buildDir builds the bucket directory over keys, with the smallest
// shift that leaves at most about one bucket per key.
func (c *idCensus) buildDir() {
	n := len(c.keys)
	if n == 0 {
		c.dir = nil
		return
	}
	base := c.keys[0]
	c.shift = uint(bits.Len64((c.keys[n-1] - base) / uint64(n)))
	buckets := int((c.keys[n-1]-base)>>c.shift) + 1
	c.dir = make([]int32, buckets+1)
	i := 0
	for b := range c.dir {
		for i < n && int((c.keys[i]-base)>>c.shift) < b {
			i++
		}
		c.dir[b] = int32(i)
	}
}

// find returns the first stream position of id.
func (c *idCensus) find(id uint64) (int32, bool) {
	if len(c.keys) == 0 || id < c.keys[0] || id > c.keys[len(c.keys)-1] {
		return 0, false
	}
	b := (id - c.keys[0]) >> c.shift
	lo := int(c.dir[b])
	i, ok := slices.BinarySearch(c.keys[lo:c.dir[b+1]], id)
	if !ok {
		return 0, false
	}
	i += lo
	if c.pos == nil {
		return int32(i), true
	}
	return c.pos[i], true
}

// packPair packs two int32 indexes into a sortable uint64 key.
func packPair(a, b int32) uint64 { return uint64(uint32(a))<<32 | uint64(uint32(b)) }

func hasPair(sorted []uint64, key uint64) bool {
	_, ok := slices.BinarySearch(sorted, key)
	return ok
}

// edgeIndex is the sorted friend-edge set packPair(from, to) over census
// positions, with each from-position's row located up front so a lookup
// searches only that user's few edges.
type edgeIndex struct {
	edges []uint64 // sorted
	rows  []int32  // edges[rows[u]:rows[u+1]] all have from-position u
}

func newEdgeIndex(edges []uint64, users int) edgeIndex {
	slices.Sort(edges)
	rows := make([]int32, users+1)
	e := 0
	for u := range rows {
		for e < len(edges) && int32(edges[e]>>32) < int32(u) {
			e++
		}
		rows[u] = int32(e)
	}
	return edgeIndex{edges: edges, rows: rows}
}

func (x edgeIndex) has(from, to int32) bool {
	return hasPair(x.edges[x.rows[from]:x.rows[from+1]], packPair(from, to))
}

// unresolved marks a flat friend entry whose ID is not in the census;
// resolved entries hold a census position, which is always below 2^31.
const unresolved = ^uint64(0)

// fsckScan runs the referential passes over src. A decode error aborts
// the scan, returning the per-section counts seen so far. The canonical
// section checksums are computed only when man is non-nil, which also
// sizes the indexes. The passes are sequential: each is a single ordered
// stream whose indexes the next pass depends on.
func fsckScan(src sectionSource, man *Manifest) (*fsckScanState, error) {
	st := &fsckScanState{sums: map[string]SectionSum{}, sub: newReport()}
	est := func(section string) int {
		if man == nil {
			return 0
		}
		return man.Sections[section].Records
	}
	sum := man != nil

	// Games: catalog census, duplicates, canonical checksum.
	apps := make(map[uint32]bool, est(sectionGames))
	var c canon
	collectedAt, err := each(src, sectionGames, func(rec *Record) error {
		g := &rec.Game
		if sum {
			c.game(g)
		}
		st.games++
		if apps[g.AppID] {
			st.sub.add(ViolationDuplicateGame, "app %d appears more than once in the catalog", g.AppID)
		}
		apps[g.AppID] = true
		return nil
	})
	st.collectedAt = collectedAt
	if err != nil {
		return st, err
	}
	st.sums[sectionGames] = SectionSum{Records: st.games, CRC32C: c.sum()}
	st.sub.RecordsVerified += int64(st.games)

	// Groups, pass 1: the memberOf index. gidIndex is last-wins like the
	// in-memory memberOf map (a duplicate GID's later member set is the
	// one user-side checks consult); members are copied and sorted so the
	// user-side membership check is a binary search, not a set per group.
	gidIndex := make(map[uint64]int32, est(sectionGroups))
	var members [][]uint64
	groupSeen := make(map[uint64]bool, est(sectionGroups))
	c = canon{}
	_, err = each(src, sectionGroups, func(rec *Record) error {
		g := &rec.Group
		if sum {
			c.group(g)
		}
		sorted := slices.Clone(g.Members)
		slices.Sort(sorted)
		members = append(members, sorted)
		gidIndex[g.GID] = int32(st.groups)
		if groupSeen[g.GID] {
			st.sub.add(ViolationDuplicateGroup, "group %d appears more than once", g.GID)
		}
		groupSeen[g.GID] = true
		st.groups++
		return nil
	})
	if err != nil {
		return st, err
	}
	st.sums[sectionGroups] = SectionSum{Records: st.groups, CRC32C: c.sum()}

	// Users, one pass: the SteamID census and canonical checksum, every
	// per-user check that needs no census (ownership, playtime,
	// membership), and the raw material for the friend checks — each
	// user's friend IDs appended to one flat list, and membership pairs
	// keyed by stream position. The ownership map holds stream position
	// + 1 per app, so it is never cleared between users.
	census := &idCensus{ids: make([]uint64, 0, est(sectionUsers))}
	var (
		friends []uint64 // every user's friend IDs, flat in record order
		ends    []int    // user i's friends are friends[ends[i-1]:ends[i]]
		pairs   []uint64 // packPair(stream position, group index)
	)
	owned := make(map[uint32]int32)
	c = canon{}
	_, err = each(src, sectionUsers, func(rec *Record) error {
		u := &rec.User
		i := int32(st.users)
		if sum {
			c.user(u)
		}
		census.ids = append(census.ids, u.SteamID)
		st.users++
		st.sub.RecordsVerified++
		for _, f := range u.Friends {
			friends = append(friends, f.SteamID)
		}
		ends = append(ends, len(friends))
		stamp := i + 1
		for _, g := range u.Games {
			if owned[g.AppID] == stamp {
				st.sub.add(ViolationDuplicateOwnership, "user %d owns app %d twice", u.SteamID, g.AppID)
			}
			owned[g.AppID] = stamp
			if !apps[g.AppID] {
				st.sub.add(ViolationOwnedAppUnknown, "user %d owns app %d which is not in the catalog", u.SteamID, g.AppID)
			}
			if g.TotalMinutes < 0 || g.TwoWeekMinutes < 0 {
				st.sub.add(ViolationPlaytimeInvariant, "user %d app %d has negative playtime", u.SteamID, g.AppID)
			} else if int64(g.TwoWeekMinutes) > g.TotalMinutes {
				st.sub.add(ViolationPlaytimeInvariant, "user %d app %d two-week playtime exceeds lifetime", u.SteamID, g.AppID)
			}
		}
		for _, gid := range u.Groups {
			gi, ok := gidIndex[gid]
			if !ok {
				st.sub.add(ViolationMembershipUnknown, "user %d belongs to uncrawled group %d", u.SteamID, gid)
				continue
			}
			if _, found := slices.BinarySearch(members[gi], u.SteamID); !found {
				st.sub.add(ViolationMembershipAsymmetric, "user %d lists group %d but the group does not list the user", u.SteamID, gid)
			}
			pairs = append(pairs, packPair(i, gi))
		}
		return nil
	})
	if err != nil {
		return st, err
	}
	st.sums[sectionUsers] = SectionSum{Records: st.users, CRC32C: c.sum()}

	// Census: duplicate IDs, and each record's canonical position (its
	// ID's first occurrence), which stands in for the ID in every index —
	// duplicate-ID records collapse onto one position exactly as map keys
	// collapse onto one ID.
	census.build()
	first := make([]int32, len(census.ids))
	for i, id := range census.ids {
		first[i], _ = census.find(id)
		if first[i] != int32(i) {
			st.sub.add(ViolationDuplicateUser, "user %d appears more than once", id)
		}
	}
	// The group-side check consults userAt's first-wins record. Pairs are
	// keyed by stream position and looked up by first-occurrence position,
	// so a later duplicate's pairs can never match: no filter is needed.
	slices.Sort(pairs)

	// Friend edges: resolve every friend ID against the census once,
	// replacing it in the flat list with its position (or unresolved, with
	// the raw ID kept aside for the report), and index the edges.
	var unknown []uint64
	edges := make([]uint64, 0, len(friends))
	lo := 0
	for i, end := range ends {
		for k := lo; k < end; k++ {
			fi, ok := census.find(friends[k])
			if !ok {
				unknown = append(unknown, friends[k])
				friends[k] = unresolved
				continue
			}
			edges = append(edges, packPair(first[i], fi))
			friends[k] = uint64(fi)
		}
		lo = end
	}
	ex := newEdgeIndex(edges, len(census.ids))

	// Friend checks, in record order. A self-listing resolves to the
	// user's own canonical position.
	lo = 0
	for i, end := range ends {
		id, ci := census.ids[i], first[i]
		for _, ref := range friends[lo:end] {
			if ref == unresolved {
				st.sub.add(ViolationFriendUnknown, "user %d lists unknown account %d as a friend", id, unknown[0])
				unknown = unknown[1:]
				continue
			}
			fi := int32(ref)
			if fi == ci {
				st.sub.add(ViolationSelfFriend, "user %d lists itself as a friend", id)
				continue
			}
			if !ex.has(fi, ci) {
				fid := census.ids[fi]
				st.sub.add(ViolationFriendAsymmetric, "user %d lists %d but %d does not list %d", id, fid, fid, id)
			}
		}
		lo = end
	}

	// Groups, pass 2: group-side member checks. The membership lookup
	// resolves the group's GID through gidIndex so duplicate GIDs match a
	// user listing that GID value, exactly as the in-memory check
	// compares GID values.
	_, err = each(src, sectionGroups, func(rec *Record) error {
		g := &rec.Group
		st.sub.RecordsVerified++
		gi := gidIndex[g.GID]
		for _, m := range g.Members {
			ui, ok := census.find(m)
			if !ok {
				st.sub.add(ViolationMemberUnknown, "group %d lists unknown account %d as a member", g.GID, m)
				continue
			}
			if !hasPair(pairs, packPair(ui, gi)) {
				st.sub.add(ViolationMembershipAsymmetric, "group %d lists user %d but the user does not list the group", g.GID, m)
			}
		}
		return nil
	})
	if err != nil {
		return st, err
	}
	return st, nil
}
