package crawler

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"steamstudy/internal/apiserver"
)

var updatePins = flag.Bool("update", false, "rewrite testdata/crawl_pins.json from this build")

// crawlPin is the identity of the crawl of crawlUniverse: the saved
// snapshot's .jsonl bytes and its ContentSignature, CollectedAt zeroed.
type crawlPin struct {
	JSONLSHA256      string `json:"jsonl_sha256"`
	ContentSignature string `json:"content_signature"`
}

// TestCrawlJournalPinned pins what a journaled crawl of the 800-user
// universe produces, and that its journal gives the same snapshot back:
// RebuildFromJournal before and after CompactJournal must carry the
// crawled snapshot's ContentSignature. A change to the crawl, to the
// journal's record codec or to compaction that alters one record fails
// here. Run with -update to rewrite the pins, and name the reason in
// CHANGES.md.
func TestCrawlJournalPinned(t *testing.T) {
	dir := t.TempDir()
	jdir := filepath.Join(dir, "journal")
	ts := startServer(t, apiserver.Config{})
	snap := runCrawl(t, Config{BaseURL: ts.URL, Workers: 4, CheckpointPath: jdir, SegmentMaxBytes: 64 << 10})
	snap.CollectedAt = 0
	path := filepath.Join(dir, "crawl.jsonl")
	if err := snap.Save(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	got := crawlPin{JSONLSHA256: hex.EncodeToString(sum[:]), ContentSignature: snap.ContentSignature()}

	for _, stage := range []string{"before compaction", "after compaction"} {
		if stage == "after compaction" {
			if err := CompactJournal(jdir); err != nil {
				t.Fatal(err)
			}
		}
		rebuilt, err := RebuildFromJournal(jdir)
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if sig := rebuilt.ContentSignature(); sig != got.ContentSignature {
			t.Errorf("%s: rebuilt signature %s, crawled %s", stage, sig, got.ContentSignature)
		}
	}

	golden := filepath.Join("testdata", "crawl_pins.json")
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
	var want crawlPin
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("reading %s: %v", golden, err)
	}
	if got != want {
		t.Errorf("crawl pins %+v, pinned %+v", got, want)
	}
}
