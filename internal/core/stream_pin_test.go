package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"steamstudy/internal/dataset"
	"steamstudy/internal/simworld"
)

// TestStreamTable4Pinned pins the out-of-core Table 4: the SHA-256 of
// StreamTable4's output over a sharded directory that WriteUniverse
// wrote, at the RunAll pins' config. The segments are small, so every
// section spans several of them and the Reader crosses segment ends
// mid-chunk. It shares -update with TestRunAllPinned and rewrites
// testdata/stream_t4_pins.json.
func TestStreamTable4Pinned(t *testing.T) {
	got := map[string]string{}
	dir := t.TempDir()
	for _, seed := range pinSeeds {
		path := filepath.Join(dir, "seed"+strconv.FormatInt(seed, 10)+".d")
		uni := simworld.MustGenerate(simworld.DefaultConfig(pinUsers), seed)
		if err := dataset.WriteUniverse(path, uni, dataset.WithShardRecords(700)); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := StreamTable4(&buf, path, "", nil, 2); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		got[strconv.FormatInt(seed, 10)] = hex.EncodeToString(sum[:])
	}

	golden := filepath.Join("testdata", "stream_t4_pins.json")
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
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("reading %s: %v", golden, err)
	}
	for _, seed := range pinSeeds {
		k := strconv.FormatInt(seed, 10)
		if got[k] != want[k] {
			t.Errorf("seed %s: streaming Table 4 output %s, pinned %s", k, got[k], want[k])
		}
	}
}
