package dataset

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// stdlibDecodeLine is the decoder's oracle: one line through
// encoding/json, mapped onto decodedLine with the errors Load reports.
func stdlibDecodeLine(b []byte) (decodedLine, error) {
	var line jsonlLine
	if err := json.Unmarshal(b, &line); err != nil {
		return decodedLine{}, err
	}
	switch line.Kind {
	case "header":
		return decodedLine{kind: 'h', collectedAt: line.CollectedAt}, nil
	case "game":
		if line.Game != nil {
			return decodedLine{kind: 'g', game: *line.Game}, nil
		}
	case "user":
		if line.User != nil {
			return decodedLine{kind: 'u', user: *line.User}, nil
		}
	case "group":
		if line.Group != nil {
			return decodedLine{kind: 'p', group: *line.Group}, nil
		}
	default:
		return decodedLine{}, fmt.Errorf("unknown record kind %q", line.Kind)
	}
	return decodedLine{}, fmt.Errorf("%s record without payload", line.Kind)
}

// sameRecord reports whether two decoded lines carry the same record,
// nil-versus-empty list identity included.
func sameRecord(a, b decodedLine) bool {
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case 'h':
		return a.collectedAt == b.collectedAt
	case 'g':
		return reflect.DeepEqual(a.game, b.game)
	case 'u':
		return reflect.DeepEqual(a.user, b.user)
	case 'p':
		return reflect.DeepEqual(a.group, b.group)
	}
	return false
}

const (
	parityUser  = `{"kind":"user","user":{"SteamID":76561197960265729,"Created":1200000000,"Country":"DE","City":"Berlin","Friends":[{"SteamID":2,"Since":-5}],"Games":[{"AppID":10,"TotalMinutes":600,"TwoWeekMinutes":30}],"Groups":[7]}}`
	parityGame  = `{"kind":"game","game":{"AppID":10,"Name":"Alpha","Type":"game","Genres":["Action"],"Multiplayer":false,"PriceCents":999,"Metacritic":80,"ReleaseYear":2012,"Developer":"Studio","Achievements":[{"Name":"ACH_0","Percent":42.5}]}}`
	parityGroup = `{"kind":"group","group":{"GID":7,"Name":"grp","Type":"Open","Members":[1,2,3]}}`
)

// parityCases are lines the fast path must not decide differently from
// encoding/json: numbers outside JSON's grammar, raw control bytes and
// invalid UTF-8 in strings, and the list and null shapes around them.
// Each edits one canonical line; FuzzJSONLDecodeLine's seed corpus
// (testdata/fuzz/FuzzJSONLDecodeLine) holds the same inputs.
var parityCases = []struct{ name, line string }{
	{"steamid_leading_zero", strings.Replace(parityUser, `"SteamID":76561197960265729`, `"SteamID":007`, 1)},
	{"created_negative_leading_zero", strings.Replace(parityUser, `"Created":1200000000`, `"Created":-01`, 1)},
	{"created_bare_minus", strings.Replace(parityUser, `"Created":1200000000`, `"Created":-`, 1)},
	{"created_negative_zero", strings.Replace(parityUser, `"Created":1200000000`, `"Created":-0`, 1)},
	{"steamid_overflow", strings.Replace(parityUser, `"SteamID":76561197960265729`, `"SteamID":18446744073709551616`, 1)},
	{"steamid_max", strings.Replace(parityUser, `"SteamID":76561197960265729`, `"SteamID":18446744073709551615`, 1)},
	{"steamid_negative", strings.Replace(parityUser, `"SteamID":76561197960265729`, `"SteamID":-1`, 1)},
	{"since_int64_min", strings.Replace(parityUser, `"Since":-5`, `"Since":-9223372036854775808`, 1)},
	{"since_int64_underflow", strings.Replace(parityUser, `"Since":-5`, `"Since":-9223372036854775809`, 1)},
	{"groups_leading_zero", strings.Replace(parityUser, `"Groups":[7]`, `"Groups":[07]`, 1)},
	{"percent_plus", strings.Replace(parityGame, `"Percent":42.5`, `"Percent":+5`, 1)},
	{"percent_leading_dot", strings.Replace(parityGame, `"Percent":42.5`, `"Percent":.5`, 1)},
	{"percent_trailing_dot", strings.Replace(parityGame, `"Percent":42.5`, `"Percent":5.`, 1)},
	{"percent_leading_zero", strings.Replace(parityGame, `"Percent":42.5`, `"Percent":01.5`, 1)},
	{"percent_bare_exponent", strings.Replace(parityGame, `"Percent":42.5`, `"Percent":1e`, 1)},
	{"percent_exponent", strings.Replace(parityGame, `"Percent":42.5`, `"Percent":-2.5E-9`, 1)},
	{"percent_overflow", strings.Replace(parityGame, `"Percent":42.5`, `"Percent":1e400`, 1)},
	{"country_control_byte", strings.Replace(parityUser, `"Country":"DE"`, "\"Country\":\"D\x01E\"", 1)},
	{"city_invalid_utf8", strings.Replace(parityUser, `"City":"Berlin"`, "\"City\":\"\xff\"", 1)},
	{"name_truncated_utf8", strings.Replace(parityGame, `"Name":"Alpha"`, "\"Name\":\"Alph\xc3\"", 1)},
	{"name_valid_utf8", strings.Replace(parityGame, `"Name":"Alpha"`, `"Name":"héllo 日本語 🎮"`, 1)},
	{"name_del_byte", strings.Replace(parityGroup, `"Name":"grp"`, "\"Name\":\"g\x7fp\"", 1)},
	{"lists_empty", strings.NewReplacer(`[{"SteamID":2,"Since":-5}]`, `[]`, `[{"AppID":10,"TotalMinutes":600,"TwoWeekMinutes":30}]`, `[]`, `[7]`, `[]`).Replace(parityUser)},
	{"lists_null", strings.NewReplacer(`[{"SteamID":2,"Since":-5}]`, `null`, `[{"AppID":10,"TotalMinutes":600,"TwoWeekMinutes":30}]`, `null`, `[7]`, `null`).Replace(parityUser)},
	{"members_trailing_comma", strings.Replace(parityGroup, `[1,2,3]`, `[1,2,3,]`, 1)},
	{"payload_null", `{"kind":"user","user":null}`},
	{"line_null", `null`},
}

// Load must decide every parity case exactly as encoding/json does: the
// same error, at the same line, or the same record.
func TestJSONLDecodeErrorParity(t *testing.T) {
	for _, line := range []string{parityUser, parityGame, parityGroup} {
		var d chunkDecoder
		if !decodeLineFast([]byte(line), &decodedLine{}, &d) {
			t.Fatalf("fast path rejects the canonical line %s", line)
		}
	}
	for _, c := range parityCases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "parity.jsonl")
			raw := `{"kind":"header","collected_at":5}` + "\n" + c.line + "\n"
			if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			want, werr := stdlibDecodeLine([]byte(c.line))
			s, err := Load(path)
			if werr != nil {
				wantErr := fmt.Sprintf("dataset: decoding %s: line 2: %v", path, werr)
				if err == nil || err.Error() != wantErr {
					t.Fatalf("Load error:\n got  %v\n want %s", err, wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("encoding/json accepts the line, Load fails: %v", err)
			}
			var got decodedLine
			switch {
			case len(s.Games) == 1:
				got = decodedLine{kind: 'g', game: s.Games[0]}
			case len(s.Users) == 1:
				got = decodedLine{kind: 'u', user: s.Users[0]}
			case len(s.Groups) == 1:
				got = decodedLine{kind: 'p', group: s.Groups[0]}
			}
			if !sameRecord(got, want) {
				t.Fatalf("record differs from encoding/json:\n got  %+v\n want %+v", got, want)
			}
		})
	}
}

// Every list of a decoded record is carved with cap == len, so appending
// to one user's lists cannot write into the next user's.
func TestDecodedListsDoNotAlias(t *testing.T) {
	s := persistSnapshot()
	for i := range s.Users {
		s.Users[i].Groups = []uint64{uint64(100 + i), uint64(200 + i)}
	}
	got := loadJSONL(t, saveJSONL(t, s))
	next := got.Users[1]
	want := UserRecord{
		Friends: append([]FriendRecord(nil), next.Friends...),
		Games:   append([]OwnershipRecord(nil), next.Games...),
		Groups:  append([]uint64(nil), next.Groups...),
	}
	u := &got.Users[0]
	u.Friends = append(u.Friends, FriendRecord{SteamID: 999})
	u.Games = append(u.Games, OwnershipRecord{AppID: 999})
	u.Groups = append(u.Groups, 999)
	if !reflect.DeepEqual(next.Friends, want.Friends) || !reflect.DeepEqual(next.Games, want.Games) ||
		!reflect.DeepEqual(next.Groups, want.Groups) {
		t.Fatalf("appending to user 0 changed user 1: %+v", next)
	}
}

// FuzzJSONLDecodeLine holds the line decoder to its oracle: the fast
// path plus its encoding/json fallback must produce the record, or the
// error text, that json.Unmarshal into jsonlLine produces. The line is
// decoded as the chunk after one the same decoder already carved, and
// that chunk's records must come through unchanged (slabs are never
// reused). Every record decoded from the fuzz bytes must also survive
// encode → decode unchanged.
func FuzzJSONLDecodeLine(f *testing.F) {
	for _, line := range bytes.Split(stdlibJSONL(f, nastySnapshot()), []byte{'\n'}) {
		f.Add(line)
	}
	prevLines := []string{parityGame, parityUser, parityGroup}
	f.Fuzz(func(t *testing.T, line []byte) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			return
		}
		var d chunkDecoder
		var prevRaw []rawLine
		for i, l := range prevLines {
			prevRaw = append(prevRaw, rawLine{no: i + 1, b: []byte(l)})
		}
		prev := d.decode(prevRaw, nil)
		if prev.err != nil {
			t.Fatal(prev.err)
		}
		dc := d.decode([]rawLine{{no: 4, b: line}}, nil)
		want, werr := stdlibDecodeLine(line)
		switch {
		case werr != nil:
			if dc.err == nil || dc.err.Error() != werr.Error() || dc.errLine != 4 {
				t.Fatalf("%q: error %v at line %d, encoding/json says %v", line, dc.err, dc.errLine, werr)
			}
		case dc.err != nil:
			t.Fatalf("%q: decode fails (%v), encoding/json accepts", line, dc.err)
		case len(dc.recs) != 1 || !sameRecord(dc.recs[0], want):
			t.Fatalf("%q: record differs from encoding/json:\n got  %+v\n want %+v", line, dc.recs, want)
		}
		for i, l := range prevLines {
			if w, _ := stdlibDecodeLine([]byte(l)); !sameRecord(prev.recs[i], w) {
				t.Fatalf("decoding %q changed the previous chunk's record %d", line, i)
			}
		}
		if werr != nil {
			return
		}
		var enc []byte
		var err error
		switch rec := dc.recs[0]; rec.kind {
		case 'h':
			enc = appendHeaderLine(nil, rec.collectedAt)
		case 'g':
			enc, err = appendGameLine(nil, &rec.game)
		case 'u':
			enc, err = appendUserLine(nil, &rec.user)
		case 'p':
			enc, err = appendGroupLine(nil, &rec.group)
		}
		if err != nil {
			t.Fatalf("%q: re-encoding the decoded record: %v", line, err)
		}
		again := d.decode([]rawLine{{no: 1, b: bytes.TrimSpace(enc)}}, nil)
		if again.err != nil || !sameRecord(again.recs[0], dc.recs[0]) {
			t.Fatalf("%q: round trip through %q changed the record (%v)", line, enc, again.err)
		}
	})
}

// A line longer than one of the Reader's 1 MiB read-ahead blocks is
// assembled in the line arena and decodes like any other, as do the
// lines around it.
func TestLoadLineLongerThanReadBuffer(t *testing.T) {
	s := persistSnapshot()
	big := GroupRecord{GID: 8, Name: strings.Repeat("n", 300_000), Type: "Open"}
	for i := uint64(0); i < 200_000; i++ {
		big.Members = append(big.Members, 76561197960265728+i)
	}
	s.Groups = append(s.Groups, big, GroupRecord{GID: 9, Name: "after", Type: "Open", Members: []uint64{1}})
	raw := saveJSONL(t, s)
	if got, want := loadJSONL(t, raw), stdlibDecodeJSONL(t, raw); !reflect.DeepEqual(got, want) {
		t.Fatal("load of a snapshot with a 2 MiB line diverged from encoding/json")
	}
}
