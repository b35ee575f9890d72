// The journal's fencing guard. A fleet lease carries a per-shard epoch
// that the lease table bumps on every (re)issue; the journal pins that
// epoch durably in the shard directory so a worker paused past its lease
// TTL — SIGSTOP, GC stall, NFS hang — cannot resume and write stale
// records into a journal a successor now owns. Two mechanisms compose:
//
//   - The fence file: one fsynced JSON document holding the highest epoch
//     that ever opened this journal for writing, plus a seal map fixing
//     the byte length of every segment the takeover replayed. Appends
//     re-read the fence and refuse to write once a higher epoch has
//     fenced them out (ErrFenced). Seals make the guarantee independent
//     of the zombie noticing: any bytes a paused writer manages to land
//     after a takeover fall beyond the sealed length and are excluded
//     from every future replay.
//   - Segment epoch headers: segments created by an epoch-bearing writer
//     begin with a 16-byte header naming their epoch, so replay can skip
//     whole segments forged below the fence even if they were never
//     sealed (a zombie racing the takeover's directory listing).
//
// Solo crawls (epoch zero, no fence file) pay nothing: their journals
// are byte-identical to the unfenced format and take no per-append read.
package crawler

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// ErrFenced reports a journal write (or open-for-write) attempted with an
// epoch below the journal's fence: the caller's lease was reissued to a
// successor and the caller must abandon the shard immediately. Fleet
// workers treat it exactly like fleet.ErrLeaseLost.
var ErrFenced = errors.New("crawler: journal fenced: lease epoch superseded")

// fenceName is the fence file, living beside the segments in the shard's
// journal directory.
const fenceName = "fence"

// Fence is the durable epoch guard of one journal directory.
type Fence struct {
	// Epoch is the highest lease epoch that has opened this journal for
	// writing. Writers with a lower epoch are fenced out.
	Epoch uint64 `json:"epoch"`
	// Seals fixes, per segment sequence number, the byte length the
	// fencing takeover replayed. Replay never reads a sealed segment past
	// its seal, so late writes by a fenced-out process are inert.
	Seals map[int]int64 `json:"seals,omitempty"`
}

// ReadFence loads the fence of the journal directory. A missing fence
// file returns the zero Fence (epoch 0 = unfenced) and no error.
func ReadFence(dir string) (Fence, error) {
	var f Fence
	_, err := readJSON(dir, fenceName, &f)
	return f, err
}

// readJSON decodes dir/name into v and reports whether the file exists;
// a missing file is not an error.
func readJSON(dir, name string, v any) (bool, error) {
	raw, err := os.ReadFile(filepath.Join(dir, name))
	if os.IsNotExist(err) {
		return false, nil
	}
	if err == nil {
		err = json.Unmarshal(raw, v)
	}
	if err != nil {
		return true, fmt.Errorf("crawler: %s: %w", name, err)
	}
	return true, nil
}

// writeFence durably publishes the fence, so the epoch bump is on disk
// before the new owner writes its first record.
func writeFence(dir string, f Fence) error {
	return publishJSON(dir, fenceName, f)
}

// publishJSON durably replaces dir/name with v as indented JSON: temp
// file, fsync, rename, directory fsync. The fence and the compacted
// base's sidecar are published this way.
func publishJSON(dir, name string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("crawler: %s encode: %w", name, err)
	}
	tmp, err := os.CreateTemp(dir, ".tmp-"+name+"-")
	if err != nil {
		return fmt.Errorf("crawler: %s temp: %w", name, err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(raw); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("crawler: %s write: %w", name, err)
	}
	if err := os.Rename(tmpName, filepath.Join(dir, name)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("crawler: %s publish: %w", name, err)
	}
	return syncJournalDir(dir)
}
