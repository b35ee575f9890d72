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
)

// TestExportCSVPinned exports each pinned study twice and requires the
// two directories to match byte for byte — a series built by ranging
// over a map would reorder its rows between runs — then pins every
// CSV's SHA-256 at the RunAll pins' config. It shares -update with
// TestRunAllPinned and rewrites testdata/export_pins.json.
func TestExportCSVPinned(t *testing.T) {
	got := map[string]map[string]string{}
	for _, seed := range pinSeeds {
		s, err := New(Options{Users: pinUsers, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var dirs [2]string
		for i := range dirs {
			dirs[i] = t.TempDir()
			if err := s.ExportCSV(dirs[i]); err != nil {
				t.Fatal(err)
			}
		}
		entries, err := os.ReadDir(dirs[0])
		if err != nil {
			t.Fatal(err)
		}
		pins := map[string]string{}
		for _, e := range entries {
			first, err := os.ReadFile(filepath.Join(dirs[0], e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			second, err := os.ReadFile(filepath.Join(dirs[1], e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first, second) {
				t.Errorf("seed %d: %s differs between two exports of one study", seed, e.Name())
			}
			sum := sha256.Sum256(first)
			pins[e.Name()] = hex.EncodeToString(sum[:])
		}
		got[strconv.FormatInt(seed, 10)] = pins
	}

	golden := filepath.Join("testdata", "export_pins.json")
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
	var want map[string]map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("reading %s: %v", golden, err)
	}
	for _, seed := range pinSeeds {
		k := strconv.FormatInt(seed, 10)
		if len(got[k]) != len(want[k]) {
			t.Errorf("seed %s: %d CSV files exported, %d pinned", k, len(got[k]), len(want[k]))
		}
		for name, sum := range want[k] {
			if got[k][name] != sum {
				t.Errorf("seed %s: %s is %s, pinned %s", k, name, got[k][name], sum)
			}
		}
	}
}
