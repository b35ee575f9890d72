package dataset

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// fuzzRecord builds one record from fuzzer-chosen fields: kind%3 picks
// game, user or group, (kind/3)%3 whether its lists are nil, empty or
// filled, and kind&0x80 a game's Multiplayer flag.
func fuzzRecord(kind byte, s1, s2 string, n int64, id uint64, x float64) Record {
	shape := (kind / 3) % 3
	list := func(filled int) int { return [3]int{-1, 0, filled}[shape] }
	var rec Record
	switch kind % 3 {
	case 0:
		g := GameRecord{AppID: uint32(id), Name: s1, Type: s2, Multiplayer: kind&0x80 != 0,
			PriceCents: n, Metacritic: int(int32(n)), ReleaseYear: int(int16(n)), Developer: s2 + s1}
		if k := list(2); k >= 0 {
			g.Genres = []string{s1, s2}[:k]
			g.Achievements = []AchievementRecord{{Name: s1, Percent: x}, {Name: s2, Percent: -x / 3}}[:k]
		}
		rec.Kind, rec.Game = KindGame, g
	case 1:
		u := UserRecord{SteamID: id, Created: n, Country: s1, City: s2}
		if k := list(2); k >= 0 {
			u.Friends = []FriendRecord{{SteamID: id, Since: n}, {SteamID: ^id, Since: -n}}[:k]
			u.Games = []OwnershipRecord{{AppID: uint32(id), TotalMinutes: n, TwoWeekMinutes: int32(n)}, {}}[:k]
			u.Groups = []uint64{id, id >> 7}[:k]
		}
		rec.Kind, rec.User = KindUser, u
	default:
		g := GroupRecord{GID: id, Name: s1, Type: s2}
		if k := list(1); k >= 0 {
			g.Members = []uint64{id}[:k]
		}
		rec.Kind, rec.Group = KindGroup, g
	}
	return rec
}

// FuzzJSONLEncodeRecord is the encode half of the codec's differential
// check: every record line the hand-rolled encoder writes must equal
// encoding/json's line byte for byte, and a non-finite float must fail
// with encoding/json's error. The encoder appends to a caller's buffer,
// so it must also leave a prefix intact, and a failure must append
// nothing. Seeds: testdata/fuzz/FuzzJSONLEncodeRecord.
func FuzzJSONLEncodeRecord(f *testing.F) {
	f.Add(byte(6), "<Alpha & \"Beta\">", "line sep", int64(-1), uint64(76561197960265729), 42.5)
	f.Add(byte(0x84), "bad \xff utf8", "tab\tnl\n", int64(math.MaxInt64), uint64(math.MaxUint64), 1e21)
	f.Add(byte(6), "nan", "", int64(0), uint64(1), math.NaN())
	f.Add(byte(7), "", "", int64(math.MinInt64), uint64(0), 0.0)
	f.Fuzz(func(t *testing.T, kind byte, s1, s2 string, n int64, id uint64, x float64) {
		rec := fuzzRecord(kind, s1, s2, n, id, x)
		var line jsonlLine
		var got []byte
		var err error
		switch pre := []byte("prefix"); rec.Kind {
		case KindGame:
			line = jsonlLine{Kind: "game", Game: &rec.Game}
			got, err = appendGameLine(pre, &rec.Game)
		case KindUser:
			line = jsonlLine{Kind: "user", User: &rec.User}
			got, err = appendUserLine(pre, &rec.User)
		default:
			line = jsonlLine{Kind: "group", Group: &rec.Group}
			got, err = appendGroupLine(pre, &rec.Group)
		}
		want, werr := json.Marshal(line)
		switch {
		case werr != nil:
			if err == nil || err.Error() != werr.Error() {
				t.Fatalf("%+v: error %v, encoding/json says %v", rec, err, werr)
			}
			if string(got) != "prefix" {
				t.Fatalf("%+v: failed encode left %q in the buffer", rec, got)
			}
		case err != nil:
			t.Fatalf("%+v: encode fails (%v), encoding/json accepts", rec, err)
		case !bytes.Equal(got, append(append([]byte("prefix"), want...), '\n')):
			t.Fatalf("%+v: line differs from encoding/json:\n got  %q\n want %q", rec, got, want)
		}
	})
}
