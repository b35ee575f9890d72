package steamstudy

import (
	"bytes"
	"context"
	"encoding/csv"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var (
	studyOnce sync.Once
	study     *Study
	studyErr  error
)

func sharedStudy(t *testing.T) *Study {
	t.Helper()
	studyOnce.Do(func() {
		study, studyErr = New(Options{Users: 12000, CatalogSize: 1200, Seed: 4})
	})
	if studyErr != nil {
		t.Fatal(studyErr)
	}
	return study
}

func TestNewDefaultsAndHeadline(t *testing.T) {
	s := sharedStudy(t)
	h := s.Headline()
	if h.Users != 12000 || h.Games != 1200 {
		t.Fatalf("headline sizes %+v", h)
	}
	if h.Friendships == 0 || h.OwnedGames == 0 || h.PlaytimeYears == 0 {
		t.Fatalf("empty headline: %+v", h)
	}
	if !h.SecondSnapshots {
		t.Fatal("second snapshot missing by default")
	}
}

func TestExperimentsRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 23 {
		t.Fatalf("registry has %d experiments, want 23", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment %s", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
	for _, id := range []string{"T1", "T2", "T3", "T4", "F1", "F12", "E2", "E3", "E8", "E9", "E9F", "E10"} {
		if !seen[id] {
			t.Fatalf("experiment %s missing", id)
		}
	}
}

func TestRunSingleExperiments(t *testing.T) {
	s := sharedStudy(t)
	for _, e := range Experiments() {
		var buf bytes.Buffer
		if err := s.Run(&buf, e.ID); err != nil {
			t.Fatalf("experiment %s failed: %v", e.ID, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("experiment %s produced no output", e.ID)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	s := sharedStudy(t)
	var buf bytes.Buffer
	if err := s.Run(&buf, "T99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunAllOutputsEveryHeader(t *testing.T) {
	s := sharedStudy(t)
	var buf bytes.Buffer
	if err := s.RunAll(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Table 1", "Table 2", "Table 3", "Table 4",
		"Figure 1", "Figure 2", "Figure 3", "Figure 4", "Figure 5",
		"Figure 6", "Figure 7", "Figure 8", "Figure 9", "Figure 10",
		"Figure 11", "Figure 12", "§2.2", "§3.2", "§8", "§9", "§4.1", "§10.2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("RunAll output missing %q", want)
		}
	}
}

func TestSnapshotRoundTripThroughDisk(t *testing.T) {
	s := sharedStudy(t)
	path := filepath.Join(t.TempDir(), "snap.jsonl.gz")
	if err := s.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Headline().Users != s.Headline().Users {
		t.Fatal("loaded snapshot differs")
	}
	// Snapshot-only studies run data experiments but not generator ones.
	var buf bytes.Buffer
	if err := loaded.Run(&buf, "T3"); err != nil {
		t.Fatal(err)
	}
	if err := loaded.Run(&buf, "F12"); err == nil {
		t.Fatal("F12 should need the generator")
	}
}

func TestServeAndCrawlEndToEnd(t *testing.T) {
	small, err := New(Options{Users: 600, CatalogSize: 100, Seed: 9, SkipSecondSnapshot: true})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := small.Serve(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	snap, err := Crawl(CrawlOptions{
		BaseURL: srv.BaseURL,
		Workers: 6,
		Timeout: 2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Users) != 600 {
		t.Fatalf("crawl found %d users, want 600", len(snap.Users))
	}
	// The crawled snapshot supports the full data-driven pipeline.
	crawled := FromSnapshot(snap)
	var buf bytes.Buffer
	for _, id := range []string{"T1", "T2", "T3", "F4", "F10", "E9"} {
		if err := crawled.Run(&buf, id); err != nil {
			t.Fatalf("experiment %s on crawled data: %v", id, err)
		}
	}
	// Crawled totals match ground truth.
	if crawled.Headline().OwnedGames != small.Headline().OwnedGames {
		t.Fatal("crawled owned-games total differs from ground truth")
	}
}

func TestRunAllSkipsGeneratorExperimentsOnSnapshotStudy(t *testing.T) {
	s := sharedStudy(t)
	path := filepath.Join(t.TempDir(), "snap.jsonl")
	if err := s.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := loaded.RunAll(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "skipped") {
		t.Fatal("generator-bound experiments were not marked skipped")
	}
}

func TestExportCSVWritesEverySeries(t *testing.T) {
	s := sharedStudy(t)
	dir := filepath.Join(t.TempDir(), "csv")
	if err := s.ExportCSV(dir); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"table1_countries.csv", "table2_group_types.csv",
		"table3_percentiles.csv", "table4_classification.csv",
		"fig1_evolution.csv", "fig2_degrees.csv", "fig3_group_games.csv",
		"fig4_ownership.csv", "fig5_genre_ownership.csv",
		"fig6_playtime_cdf.csv", "fig7_two_week.csv",
		"fig8_market_value.csv", "fig9_genre_expenditure.csv",
		"fig10_multiplayer.csv", "fig11_value_scatter.csv",
		"correlations.csv", "fig12_week_matrix.csv",
	}
	for _, name := range want {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing CSV %s: %v", name, err)
		}
		records, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
		if err != nil {
			t.Fatalf("%s is not valid CSV: %v", name, err)
		}
		if len(records) < 2 {
			t.Fatalf("%s has no data rows", name)
		}
	}
}
