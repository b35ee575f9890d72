package analysis_test

import (
	"bytes"
	"testing"

	"steamstudy/internal/analysis"
	"steamstudy/internal/dataset"
	"steamstudy/internal/report"
)

// Genres with equal owned counts must come out in one order, or Figure 5
// renders differ between runs of the same snapshot.
func TestFigure5TiesRenderDeterministically(t *testing.T) {
	s := &dataset.Snapshot{
		Games: []dataset.GameRecord{
			{AppID: 1, Genres: []string{"Strategy", "Action"}},
			{AppID: 2, Genres: []string{"RPG"}},
			{AppID: 3, Genres: []string{"Indie"}},
		},
		Users: []dataset.UserRecord{
			{SteamID: 10, Games: []dataset.OwnershipRecord{{AppID: 1, TotalMinutes: 5}, {AppID: 2}}},
			{SteamID: 11, Games: []dataset.OwnershipRecord{{AppID: 1}, {AppID: 3, TotalMinutes: 9}}},
			{SteamID: 12, Games: []dataset.OwnershipRecord{{AppID: 2, TotalMinutes: 1}, {AppID: 3}}},
		},
	}
	rows := analysis.Figure5GenreOwnership(s)
	var genres []string
	for _, r := range rows {
		if r.Owned != 2 {
			t.Fatalf("genre %s owned %d times, want every genre tied at 2", r.Genre, r.Owned)
		}
		genres = append(genres, r.Genre)
	}
	want := []string{"Action", "Indie", "RPG", "Strategy"}
	if len(genres) != len(want) {
		t.Fatalf("genres %v, want %v", genres, want)
	}
	for i := range want {
		if genres[i] != want[i] {
			t.Fatalf("tied genres in order %v, want %v", genres, want)
		}
	}

	var first []byte
	for i := 0; i < 50; i++ {
		var b bytes.Buffer
		if err := report.Figure5(&b, analysis.Figure5GenreOwnership(s)); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = b.Bytes()
			continue
		}
		if !bytes.Equal(b.Bytes(), first) {
			t.Fatalf("render %d differs from the first:\n%s\nvs\n%s", i, b.Bytes(), first)
		}
	}
}
