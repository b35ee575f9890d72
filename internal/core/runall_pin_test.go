package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var updatePins = flag.Bool("update", false, "rewrite testdata/runall_pins.json from this build")

// pinUsers and pinSeeds match the generator pins in internal/dataset, so
// the two golden files describe the same universes.
const pinUsers = 3000

var pinSeeds = []int64{3, 11}

// splitRunAll cuts RunAll's output into per-experiment sections. Every
// section opens with "\n== <ID> —", so each sub-slice runs from one
// opener to the next and the sections concatenate back to the whole.
func splitRunAll(t *testing.T, out []byte) map[string]string {
	t.Helper()
	const opener = "\n== "
	s := string(out)
	if !strings.HasPrefix(s, opener) {
		t.Fatalf("RunAll output does not open with %q", opener)
	}
	sections := map[string]string{}
	for len(s) > 0 {
		end := strings.Index(s[len(opener):], opener)
		if end < 0 {
			end = len(s)
		} else {
			end += len(opener)
		}
		sec := s[:end]
		id, _, _ := strings.Cut(sec[len(opener):], " ")
		if _, dup := sections[id]; dup {
			t.Fatalf("experiment %s rendered twice", id)
		}
		sections[id] = sec
		s = s[end:]
	}
	return sections
}

// TestRunAllPinned pins every experiment's rendered output: the SHA-256
// of each RunAll section, at two seeds. A change that alters one byte of
// any table or figure — an analysis change, a reordered sum, a sort that
// permutes equal keys differently — fails here and names the experiment.
// Run with -update to rewrite the pins, and name the reason in
// CHANGES.md.
func TestRunAllPinned(t *testing.T) {
	got := map[string]map[string]string{}
	for _, seed := range pinSeeds {
		s, err := New(Options{Users: pinUsers, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := s.RunAll(&buf); err != nil {
			t.Fatal(err)
		}
		pins := map[string]string{}
		for id, sec := range splitRunAll(t, buf.Bytes()) {
			sum := sha256.Sum256([]byte(sec))
			pins[id] = hex.EncodeToString(sum[:])
		}
		got[strconv.FormatInt(seed, 10)] = pins
	}

	golden := filepath.Join("testdata", "runall_pins.json")
	if *updatePins {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
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
			t.Errorf("seed %s: %d experiments rendered, %d pinned", k, len(got[k]), len(want[k]))
		}
		for id, sum := range want[k] {
			if got[k][id] != sum {
				t.Errorf("seed %s: experiment %s output %s, pinned %s", k, id, got[k][id], sum)
			}
		}
	}
}
