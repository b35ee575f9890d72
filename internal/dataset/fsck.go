// Snapshot fsck. A six-month crawl's snapshot is only as good as the last
// integrity check anyone ran on it; fsck is that check. It validates two
// layers: structural integrity of the on-disk artifact (format version,
// manifest checksums, decodability) and referential integrity of the
// paper's schema (friend edges reference known accounts and are
// symmetric, owned app IDs exist in the catalog, group memberships are
// reciprocal with crawled groups), producing a typed report with counts
// per violation class instead of stopping at the first problem.

package dataset

import (
	"fmt"
	"sort"
	"strings"

	"steamstudy/internal/obs"
	"steamstudy/internal/par"
)

// ViolationClass names one kind of integrity failure.
type ViolationClass string

// Structural (artifact-level) violation classes.
const (
	// ViolationManifest: the sidecar exists but cannot be read or parsed.
	ViolationManifest ViolationClass = "manifest-invalid"
	// ViolationFormatVersion: the manifest's format version is newer than
	// this build understands.
	ViolationFormatVersion ViolationClass = "format-version"
	// ViolationFileHash: the raw file bytes fail the manifest's size or
	// SHA-256 — truncation, partial overwrite, or bit rot.
	ViolationFileHash ViolationClass = "file-hash-mismatch"
	// ViolationDecode: the container failed to decode.
	ViolationDecode ViolationClass = "decode-error"
	// ViolationSectionChecksum: a section's re-derived CRC-32C disagrees
	// with the manifest; the detail names the damaged section.
	ViolationSectionChecksum ViolationClass = "section-checksum"
	// ViolationSectionCount: a section's record count disagrees with the
	// manifest.
	ViolationSectionCount ViolationClass = "section-count"
	// ViolationHeader: the snapshot header (CollectedAt) disagrees with
	// the manifest.
	ViolationHeader ViolationClass = "header-mismatch"
)

// Referential (schema-level) violation classes, from the paper's schema.
const (
	ViolationDuplicateUser        ViolationClass = "duplicate-user"
	ViolationDuplicateGame        ViolationClass = "duplicate-game"
	ViolationDuplicateGroup       ViolationClass = "duplicate-group"
	ViolationDuplicateOwnership   ViolationClass = "duplicate-ownership"
	ViolationPlaytimeInvariant    ViolationClass = "playtime-invariant"
	ViolationFriendUnknown        ViolationClass = "friend-unknown"
	ViolationFriendAsymmetric     ViolationClass = "friend-asymmetric"
	ViolationSelfFriend           ViolationClass = "self-friend"
	ViolationOwnedAppUnknown      ViolationClass = "owned-app-unknown"
	ViolationMembershipUnknown    ViolationClass = "membership-group-unknown"
	ViolationMemberUnknown        ViolationClass = "member-unknown"
	ViolationMembershipAsymmetric ViolationClass = "membership-asymmetric"
)

// Violation is one concrete integrity failure.
type Violation struct {
	Class  ViolationClass
	Detail string
}

// maxSamplesPerClass bounds the retained detail strings so an fsck of a
// thoroughly damaged snapshot reports counts, not gigabytes of examples.
const maxSamplesPerClass = 3

// Report is the typed result of an fsck pass.
type Report struct {
	// Path is the checked file ("" for an in-memory check).
	Path string
	// Users, Games, Groups are the decoded section sizes.
	Users, Games, Groups int
	// ManifestVerified reports whether a sidecar manifest was present and
	// its file/section checks all ran (regardless of their outcome).
	ManifestVerified bool
	// RecordsVerified counts records that passed through verification.
	RecordsVerified int64
	// Counts tallies violations per class; Samples keeps the first few
	// detail strings of each class.
	Counts  map[ViolationClass]int
	Samples map[ViolationClass][]string
}

func newReport() *Report {
	return &Report{
		Counts:  make(map[ViolationClass]int),
		Samples: make(map[ViolationClass][]string),
	}
}

func (r *Report) add(class ViolationClass, format string, args ...any) {
	r.Counts[class]++
	if len(r.Samples[class]) < maxSamplesPerClass {
		r.Samples[class] = append(r.Samples[class], fmt.Sprintf(format, args...))
	}
}

func (r *Report) addViolation(v Violation) { r.add(v.Class, "%s", v.Detail) }

// merge folds a shard's sub-report into r. Shards are merged in index
// order, so counts and the per-class sample prefixes come out exactly as
// a serial pass would have produced them.
func (r *Report) merge(sub *Report) {
	r.RecordsVerified += sub.RecordsVerified
	for class, n := range sub.Counts {
		r.Counts[class] += n
		for _, s := range sub.Samples[class] {
			if len(r.Samples[class]) >= maxSamplesPerClass {
				break
			}
			r.Samples[class] = append(r.Samples[class], s)
		}
	}
}

// Violations is the total count across every class.
func (r *Report) Violations() int {
	n := 0
	for _, c := range r.Counts {
		n += c
	}
	return n
}

// Clean reports whether the snapshot passed every check.
func (r *Report) Clean() bool { return r.Violations() == 0 }

// String renders the report for the CLI: a header line, then one line per
// violation class with its count and sample details.
func (r *Report) String() string {
	var b strings.Builder
	name := r.Path
	if name == "" {
		name = "snapshot"
	}
	fmt.Fprintf(&b, "fsck %s: %d users, %d games, %d groups", name, r.Users, r.Games, r.Groups)
	if r.ManifestVerified {
		b.WriteString(", manifest verified")
	} else {
		b.WriteString(", no manifest")
	}
	if r.Clean() {
		fmt.Fprintf(&b, ": clean (%d records verified)\n", r.RecordsVerified)
		return b.String()
	}
	fmt.Fprintf(&b, ": %d violations\n", r.Violations())
	classes := make([]string, 0, len(r.Counts))
	for c := range r.Counts {
		classes = append(classes, string(c))
	}
	sort.Strings(classes)
	for _, c := range classes {
		class := ViolationClass(c)
		fmt.Fprintf(&b, "  %-26s %6d", c, r.Counts[class])
		if s := r.Samples[class]; len(s) > 0 {
			fmt.Fprintf(&b, "  e.g. %s", s[0])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// IntegrityMetrics counts fsck and repair activity. The fields are obs
// counters; Register them to surface integrity results on /metrics.
type IntegrityMetrics struct {
	RecordsVerified  obs.Counter
	ChecksumFailures obs.Counter
	Violations       obs.Counter
	Repairs          obs.Counter
}

// Register adopts the counters into a registry under dataset_ names.
// Safe on a nil registry.
func (m *IntegrityMetrics) Register(r *obs.Registry) {
	r.RegisterCounters("dataset_", m)
}

// Fsck checks the in-memory snapshot's structural and referential
// integrity against the paper's schema and returns the full report. It
// never stops early: a damaged snapshot yields counts per violation
// class, which is what decides between re-crawling and journal repair.
//
// Options: WithWorkers shards the per-user and per-group referential
// checks; shard reports are merged in index order, so counts and sample
// details are identical to a serial pass.
func (s *Snapshot) Fsck(opts ...Option) *Report {
	o := buildOptions(opts)
	r := newReport()
	s.fsckInto(r, o.workers)
	return r
}

// fsckShard is the fixed number of records per fsck shard — part of the
// work partition, not derived from the worker count, so shard boundaries
// are stable and the merged report is identical for any Workers value.
const fsckShard = 2048

// fsckPair is a directed friend edge, for the symmetry check.
type fsckPair struct{ a, b uint64 }

// fsckIndex is the read-only state shared by every verification shard.
type fsckIndex struct {
	apps     map[uint32]bool
	userAt   map[uint64]int
	friends  map[fsckPair]bool
	memberOf map[uint64]map[uint64]bool
}

func (s *Snapshot) fsckInto(r *Report, workers int) {
	r.Users, r.Games, r.Groups = len(s.Users), len(s.Games), len(s.Groups)

	// Index build: sequential map construction, recording duplicate IDs
	// as we go. The expensive part — per-record verification — is what
	// gets sharded below.
	ix := &fsckIndex{
		apps:     make(map[uint32]bool, len(s.Games)),
		userAt:   make(map[uint64]int, len(s.Users)),
		friends:  make(map[fsckPair]bool),
		memberOf: make(map[uint64]map[uint64]bool, len(s.Groups)),
	}
	for i := range s.Games {
		id := s.Games[i].AppID
		if ix.apps[id] {
			r.add(ViolationDuplicateGame, "app %d appears more than once in the catalog", id)
			continue
		}
		ix.apps[id] = true
	}
	for i := range s.Users {
		id := s.Users[i].SteamID
		if _, dup := ix.userAt[id]; dup {
			r.add(ViolationDuplicateUser, "user %d appears more than once", id)
			continue
		}
		ix.userAt[id] = i
	}
	groupAt := make(map[uint64]int, len(s.Groups))
	for i := range s.Groups {
		id := s.Groups[i].GID
		if _, dup := groupAt[id]; dup {
			r.add(ViolationDuplicateGroup, "group %d appears more than once", id)
			continue
		}
		groupAt[id] = i
	}
	for i := range s.Users {
		u := &s.Users[i]
		for _, f := range u.Friends {
			ix.friends[fsckPair{u.SteamID, f.SteamID}] = true
		}
	}
	for i := range s.Groups {
		g := &s.Groups[i]
		set := make(map[uint64]bool, len(g.Members))
		for _, m := range g.Members {
			set[m] = true
		}
		ix.memberOf[g.GID] = set
	}

	// Referential verification, sharded over fixed index ranges. Each
	// shard reads the shared indices (never writes) and accumulates into
	// its own report; the merge in shard order reproduces the serial
	// violation order per class.
	runShards(workers, len(s.Users), r, func(lo, hi int, sub *Report) {
		owned := make(map[uint32]int32)
		for i := lo; i < hi; i++ {
			s.fsckUser(ix, i, owned, sub)
		}
	})
	r.RecordsVerified += int64(len(s.Games))
	runShards(workers, len(s.Groups), r, func(lo, hi int, sub *Report) {
		for i := lo; i < hi; i++ {
			s.fsckGroup(ix, i, sub)
		}
	})
}

// runShards partitions [0, n) into fsckShard-wide ranges, verifies them
// on the pool, and merges the shard reports into r in index order.
func runShards(workers, n int, r *Report, verify func(lo, hi int, sub *Report)) {
	ns := (n + fsckShard - 1) / fsckShard
	if ns <= 1 {
		verify(0, n, r)
		return
	}
	if par.N(workers) <= 1 {
		// Sequential fast path: one effective worker gains nothing from
		// the fan-out plumbing (BENCH_datapath showed workers=max slower
		// than workers=1 on a single-CPU host), so verify shard by shard
		// straight into one sub-report. Shard boundaries and merge order
		// match the parallel path, so the report — samples included — is
		// identical.
		sub := newReport()
		for si := 0; si < ns; si++ {
			verify(si*fsckShard, min((si+1)*fsckShard, n), sub)
		}
		r.merge(sub)
		return
	}
	subs := make([]*Report, ns)
	par.For(workers, ns, func(si int) {
		sub := newReport()
		verify(si*fsckShard, min((si+1)*fsckShard, n), sub)
		subs[si] = sub
	})
	for _, sub := range subs {
		r.merge(sub)
	}
}

// fsckUser runs the per-user referential checks against the shared
// index, accumulating into the shard report. owned is the shard's
// duplicate-ownership scratch map, reused across users: an app is owned
// by user i when its stamp is i+1, so no per-user clear or allocation.
func (s *Snapshot) fsckUser(ix *fsckIndex, i int, owned map[uint32]int32, r *Report) {
	u := &s.Users[i]
	r.RecordsVerified++

	// Friend edges: every reference resolves to a crawled account and
	// is reciprocated (the paper's friendship graph is undirected).
	for _, f := range u.Friends {
		if f.SteamID == u.SteamID {
			r.add(ViolationSelfFriend, "user %d lists itself as a friend", u.SteamID)
			continue
		}
		if _, ok := ix.userAt[f.SteamID]; !ok {
			r.add(ViolationFriendUnknown, "user %d lists unknown account %d as a friend", u.SteamID, f.SteamID)
			continue
		}
		if !ix.friends[fsckPair{f.SteamID, u.SteamID}] {
			r.add(ViolationFriendAsymmetric, "user %d lists %d but %d does not list %d", u.SteamID, f.SteamID, f.SteamID, u.SteamID)
		}
	}

	// Ownership: app IDs exist in the catalog, playtimes respect the
	// two-week <= lifetime >= 0 invariants, no app owned twice.
	stamp := int32(i) + 1
	for _, g := range u.Games {
		if owned[g.AppID] == stamp {
			r.add(ViolationDuplicateOwnership, "user %d owns app %d twice", u.SteamID, g.AppID)
		}
		owned[g.AppID] = stamp
		if !ix.apps[g.AppID] {
			r.add(ViolationOwnedAppUnknown, "user %d owns app %d which is not in the catalog", u.SteamID, g.AppID)
		}
		if g.TotalMinutes < 0 || g.TwoWeekMinutes < 0 {
			r.add(ViolationPlaytimeInvariant, "user %d app %d has negative playtime", u.SteamID, g.AppID)
		} else if int64(g.TwoWeekMinutes) > g.TotalMinutes {
			r.add(ViolationPlaytimeInvariant, "user %d app %d two-week playtime exceeds lifetime", u.SteamID, g.AppID)
		}
	}

	// Memberships: every group a user lists was crawled, and that
	// group lists the user back.
	for _, gid := range u.Groups {
		set, ok := ix.memberOf[gid]
		if !ok {
			r.add(ViolationMembershipUnknown, "user %d belongs to uncrawled group %d", u.SteamID, gid)
			continue
		}
		if !set[u.SteamID] {
			r.add(ViolationMembershipAsymmetric, "user %d lists group %d but the group does not list the user", u.SteamID, gid)
		}
	}
}

// fsckGroup checks one group's member list: every member is a crawled
// account that lists the group back.
func (s *Snapshot) fsckGroup(ix *fsckIndex, i int, r *Report) {
	g := &s.Groups[i]
	r.RecordsVerified++
	for _, m := range g.Members {
		ui, ok := ix.userAt[m]
		if !ok {
			r.add(ViolationMemberUnknown, "group %d lists unknown account %d as a member", g.GID, m)
			continue
		}
		found := false
		for _, gid := range s.Users[ui].Groups {
			if gid == g.GID {
				found = true
				break
			}
		}
		if !found {
			r.add(ViolationMembershipAsymmetric, "group %d lists user %d but the user does not list the group", g.GID, m)
		}
	}
}

// FsckFile runs the full integrity check on a snapshot file: manifest
// presence and checksums (localizing damage to the section that rotted),
// container decodability, then the referential checks of Fsck. Unlike
// Load it accumulates every violation instead of failing fast. The error
// is non-nil only for environmental problems (unknown extension, missing
// file); corruption is reported in the Report. Metrics, when non-nil,
// receive the verified-record and failure counts.
//
// Options: WithWorkers parallelizes the JSONL decode and shards the
// referential checks; WithProgress reports decode progress per section.
func FsckFile(path string, m *IntegrityMetrics, opts ...Option) (*Report, error) {
	o := buildOptions(opts)
	encoding, gzipped, sharded, err := snapshotPath(path)
	if err != nil {
		return nil, err
	}
	r := newReport()
	r.Path = path
	if sharded {
		// Sharded directories take the streaming passes in fsckstream.go,
		// which never decode more than a bounded window of records.
		if err := fsckShardDir(path, r, o); err != nil {
			return nil, err
		}
		fsckRecordMetrics(r, m)
		return r, nil
	}

	man, merr := ReadManifest(path)
	switch {
	case merr != nil:
		r.add(ViolationManifest, "%v", merr)
	case man == nil:
		// Pre-manifest snapshot: structural checks are limited to
		// decodability; referential checks still run in full.
	case man.FormatVersion > SnapshotFormatVersion:
		r.add(ViolationFormatVersion, "manifest format version %d is newer than this build supports (%d)",
			man.FormatVersion, SnapshotFormatVersion)
		man = nil
	default:
		r.ManifestVerified = true
		if err := man.verifyFile(path); err != nil {
			r.add(ViolationFileHash, "%v", err)
		}
	}

	s, derr := decodeSnapshotFile(path, encoding, gzipped, o)
	if derr != nil {
		r.add(ViolationDecode, "%v", derr)
	}
	if s != nil && derr == nil {
		if man != nil && r.ManifestVerified {
			for _, v := range man.verifySections(s) {
				r.addViolation(v)
			}
		}
		s.fsckInto(r, o.workers)
	} else if s != nil {
		// Partially decoded (JSONL tail damage): still report its shape.
		r.Users, r.Games, r.Groups = len(s.Users), len(s.Games), len(s.Groups)
	}

	fsckRecordMetrics(r, m)
	return r, nil
}

func fsckRecordMetrics(r *Report, m *IntegrityMetrics) {
	if m == nil {
		return
	}
	m.RecordsVerified.Add(r.RecordsVerified)
	m.ChecksumFailures.Add(int64(r.Counts[ViolationFileHash] + r.Counts[ViolationSectionChecksum]))
	m.Violations.Add(int64(r.Violations()))
}
