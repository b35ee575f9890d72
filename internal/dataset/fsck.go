// Snapshot fsck. A six-month crawl's snapshot is only as good as the last
// integrity check anyone ran on it; fsck is that check. It validates two
// layers: structural integrity of the on-disk artifact (format version,
// manifest checksums, decodability) and referential integrity of the
// paper's schema (friend edges reference known accounts and are
// symmetric, owned app IDs exist in the catalog, group memberships are
// reciprocal with crawled groups), producing a typed report with counts
// per violation class instead of stopping at the first problem. One
// checker, fsckScan (fsckstream.go), serves in-memory snapshots, single
// files and sharded directories alike.

package dataset

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"steamstudy/internal/obs"
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

// merge folds sub's violations into r after r's own, keeping the first
// samples of each class.
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

// Fsck checks the in-memory snapshot's referential integrity against the
// paper's schema and returns the full report. It never stops early: a
// damaged snapshot yields counts per violation class, which is what
// decides between re-crawling and journal repair. The checks are
// fsckScan's, run over the snapshot's slices, so the report equals what
// FsckFile produces for the same records on disk.
func (s *Snapshot) Fsck() *Report {
	r := newReport()
	st, _ := fsckScan(s.source, nil) // the in-memory source cannot fail
	st.into(r, nil)
	return r
}

// FsckFile runs the full integrity check on a snapshot file or sharded
// directory: manifest presence and checksums (localizing damage to the
// section or segment that rotted), decodability, then the referential
// checks of Fsck. Unlike Load it accumulates every violation instead of
// failing fast. The error is non-nil only for environmental problems
// (unknown extension, a path naming a bare segment); corruption, missing
// data included, is reported in the Report. Metrics, when non-nil,
// receive the verified-record and failure counts.
//
// A sharded directory is scanned section by section through the
// streaming Reader, never holding more than index data; a single file is
// read once into memory with the tolerant Reader — which keeps the
// records before a decode error — and scanned there.
//
// Options: WithProgress reports decoded records per section, from the
// first read of each section only, so counts never decrease.
func FsckFile(path string, m *IntegrityMetrics, opts ...Option) (*Report, error) {
	o := buildOptions(opts)
	_, sharded, err := snapshotPath(path)
	if err != nil {
		return nil, err
	}
	r := newReport()
	r.Path = path
	maxVersion := SnapshotFormatVersion
	if sharded {
		maxVersion = SnapshotShardFormatVersion
	}
	man, merr := ReadManifest(path)
	switch {
	case merr != nil:
		r.add(ViolationManifest, "%v", merr)
	case man == nil:
		// Pre-manifest snapshot: structural checks are limited to
		// decodability; referential checks still run in full.
	case man.FormatVersion > maxVersion:
		r.add(ViolationFormatVersion, "manifest format version %d is newer than this build supports (%d)",
			man.FormatVersion, maxVersion)
		man = nil
	default:
		r.ManifestVerified = true
		if !sharded {
			if err := man.VerifyFile(path); err != nil {
				r.add(ViolationFileHash, "%v", err)
			}
		}
	}

	// A directory's raw-byte pass reads every segment once more; it runs
	// beside the scan into a report of its own, merged first so the
	// violations come in the serial order.
	raw := newReport()
	var wg sync.WaitGroup
	if sharded && r.ManifestVerified {
		wg.Add(1)
		go func() {
			defer wg.Done()
			verifyShardBytes(path, man, raw)
		}()
	}
	var st *fsckScanState
	var derr error
	if sharded {
		st, derr = fsckScan(fileSections(path, false, o), man)
	} else if s, err := readPartial(path, o); err != nil {
		st, derr = &fsckScanState{users: len(s.Users), games: len(s.Games), groups: len(s.Groups)}, err
	} else {
		st, derr = fsckScan(s.source, man)
	}
	wg.Wait()
	r.merge(raw)
	if derr != nil {
		// A decode failure reports the shape seen so far and the decode
		// violation; referential results from an aborted scan are
		// discarded, not half-reported.
		r.Users, r.Games, r.Groups = st.users, st.games, st.groups
		r.add(ViolationDecode, "%v", derr)
	} else {
		st.into(r, man)
	}
	fsckRecordMetrics(r, m)
	return r, nil
}

// readPartial collects a single file with the tolerant Reader. On error
// the snapshot holds the records read before it.
func readPartial(path string, o options) (*Snapshot, error) {
	r, err := openReader(path, "", false, o)
	if err != nil {
		return &Snapshot{}, err
	}
	defer r.Close()
	return readAll(r, [3]int{})
}

func fsckRecordMetrics(r *Report, m *IntegrityMetrics) {
	if m == nil {
		return
	}
	m.RecordsVerified.Add(r.RecordsVerified)
	m.ChecksumFailures.Add(int64(r.Counts[ViolationFileHash] + r.Counts[ViolationSectionChecksum]))
	m.Violations.Add(int64(r.Violations()))
}
