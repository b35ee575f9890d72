package dataset

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"steamstudy/internal/simworld"
)

var updatePins = flag.Bool("update", false, "rewrite testdata/generate_pins.json from this build")

// pinUsers is large enough that every generator sort path runs: the
// radix sorts over all users and over the global friendship stubs, the
// pdqsort path below the radix threshold (small countries' stubs), and
// the group-membership stamps.
const pinUsers = 3000

var pinSeeds = []int64{3, 11}

// generatePin is one seed's identity of the generated ground truth.
type generatePin struct {
	JSONLSHA256      string `json:"jsonl_sha256"`
	ContentSignature string `json:"content_signature"`
	// JSONLGzSHA256 is the FileSHA256 of WriteUniverse's .jsonl.gz: the
	// block compressor's bytes, which span two blocks at pinUsers.
	JSONLGzSHA256 string `json:"jsonl_gz_sha256"`
}

// TestGeneratePinned pins the generator's output: the SHA-256 of
// WriteUniverse's .jsonl and the snapshot's ContentSignature at two
// seeds. A change that alters a byte of the generated universe — a new
// draw, a tie-break, a sort that permutes equal keys differently — fails
// here. It also pins the .jsonl.gz manifest's FileSHA256, so a change to
// the compressed bytes (block size, level, header) fails too. Run with
// -update to rewrite the pins, and name the reason in CHANGES.md.
func TestGeneratePinned(t *testing.T) {
	got := map[string]generatePin{}
	dir := t.TempDir()
	for _, seed := range pinSeeds {
		uni := simworld.MustGenerate(simworld.DefaultConfig(pinUsers), seed)
		path := filepath.Join(dir, "seed"+strconv.FormatInt(seed, 10)+".jsonl")
		if err := WriteUniverse(path, uni); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(readFileT(t, path))
		gz := path + ".gz"
		if err := WriteUniverse(gz, uni); err != nil {
			t.Fatal(err)
		}
		m, err := ReadManifest(gz)
		if err != nil {
			t.Fatal(err)
		}
		got[strconv.FormatInt(seed, 10)] = generatePin{
			JSONLSHA256:      hex.EncodeToString(sum[:]),
			ContentSignature: FromUniverse(uni).ContentSignature(),
			JSONLGzSHA256:    m.FileSHA256,
		}
	}

	golden := filepath.Join("testdata", "generate_pins.json")
	if *updatePins {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	var want map[string]generatePin
	if err := json.Unmarshal(readFileT(t, golden), &want); err != nil {
		t.Fatalf("reading %s: %v", golden, err)
	}
	for _, seed := range pinSeeds {
		k := strconv.FormatInt(seed, 10)
		if got[k] != want[k] {
			t.Errorf("seed %s: generated universe %+v, pinned %+v", k, got[k], want[k])
		}
	}
}
