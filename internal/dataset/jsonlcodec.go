// Hand-rolled JSONL codec. The line-oriented export used to go through
// encoding/json record by record; at 108.7M accounts the reflection walk
// and per-record allocations dominate save/load time. This codec emits
// and parses the exact same bytes with append-style encoders and a
// strict scanner, so the on-disk format — including the committed golden
// snapshot and every manifest hash — is unchanged down to the byte.
//
// Byte compatibility is a hard requirement, not an aspiration: the
// encoder reproduces encoding/json's field order (declaration order, no
// tags on the record types), HTML-escaped strings ('<', '>', '&'
// become their \u003c-style escapes), the literal six characters
// \ufffd for invalid UTF-8, \u2028 and \u2029 escapes, the float formatting of json's floatEncoder, null for nil
// slices, and omitempty on the line envelope. The decoder's fast path
// accepts exactly what the encoder emits; any line it does not
// recognize — foreign field order, whitespace, escapes the fast path
// skips — falls back to encoding/json for that line, so hand-written or
// third-party JSONL keeps working with identical error messages.

package dataset

import (
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// jsonSafe reports whether byte c passes through encoding/json's
// HTML-escaping string encoder unchanged (htmlSafeSet).
func jsonSafe(c byte) bool {
	return c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// appendString appends s as a JSON string, byte-identical with
// encoding/json's default (HTML-escaping) encoder.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe(c) {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				// Control chars plus '<', '>', '&'.
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendFloat appends f exactly as encoding/json's floatEncoder would.
// ok is false for NaN and infinities, which JSON cannot represent; the
// caller falls back to encoding/json to surface the identical error.
func appendFloat(b []byte, f float64) (_ []byte, ok bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, false
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9, as encoding/json does.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// appendHeaderLine appends the envelope line for the snapshot header,
// including the trailing newline json.Encoder.Encode writes.
func appendHeaderLine(b []byte, collectedAt int64) []byte {
	b = append(b, `{"kind":"header"`...)
	if collectedAt != 0 { // omitempty on the envelope
		b = append(b, `,"collected_at":`...)
		b = strconv.AppendInt(b, collectedAt, 10)
	}
	return append(b, '}', '\n')
}

func appendGameLine(b []byte, g *GameRecord) ([]byte, error) {
	mark := len(b)
	b = append(b, `{"kind":"game","game":`...)
	b, ok := appendGame(b, g)
	if !ok {
		// Non-finite float: re-encode through encoding/json purely to
		// produce its exact UnsupportedValueError.
		_, err := json.Marshal(jsonlLine{Kind: "game", Game: g})
		return b[:mark], err
	}
	return append(b, '}', '\n'), nil
}

func appendGame(b []byte, g *GameRecord) ([]byte, bool) {
	b = append(b, `{"AppID":`...)
	b = strconv.AppendUint(b, uint64(g.AppID), 10)
	b = append(b, `,"Name":`...)
	b = appendString(b, g.Name)
	b = append(b, `,"Type":`...)
	b = appendString(b, g.Type)
	b = append(b, `,"Genres":`...)
	if g.Genres == nil {
		b = append(b, `null`...)
	} else {
		b = append(b, '[')
		for i, s := range g.Genres {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, s)
		}
		b = append(b, ']')
	}
	b = append(b, `,"Multiplayer":`...)
	b = strconv.AppendBool(b, g.Multiplayer)
	b = append(b, `,"PriceCents":`...)
	b = strconv.AppendInt(b, g.PriceCents, 10)
	b = append(b, `,"Metacritic":`...)
	b = strconv.AppendInt(b, int64(g.Metacritic), 10)
	b = append(b, `,"ReleaseYear":`...)
	b = strconv.AppendInt(b, int64(g.ReleaseYear), 10)
	b = append(b, `,"Developer":`...)
	b = appendString(b, g.Developer)
	b = append(b, `,"Achievements":`...)
	if g.Achievements == nil {
		b = append(b, `null`...)
	} else {
		b = append(b, '[')
		for i := range g.Achievements {
			if i > 0 {
				b = append(b, ',')
			}
			a := &g.Achievements[i]
			b = append(b, `{"Name":`...)
			b = appendString(b, a.Name)
			b = append(b, `,"Percent":`...)
			var ok bool
			if b, ok = appendFloat(b, a.Percent); !ok {
				return b, false
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, '}'), true
}

func appendUserLine(b []byte, u *UserRecord) ([]byte, error) {
	b = append(b, `{"kind":"user","user":{"SteamID":`...)
	b = strconv.AppendUint(b, u.SteamID, 10)
	b = append(b, `,"Created":`...)
	b = strconv.AppendInt(b, u.Created, 10)
	b = append(b, `,"Country":`...)
	b = appendString(b, u.Country)
	b = append(b, `,"City":`...)
	b = appendString(b, u.City)
	b = append(b, `,"Friends":`...)
	if u.Friends == nil {
		b = append(b, `null`...)
	} else {
		b = append(b, '[')
		for i := range u.Friends {
			if i > 0 {
				b = append(b, ',')
			}
			f := &u.Friends[i]
			b = append(b, `{"SteamID":`...)
			b = strconv.AppendUint(b, f.SteamID, 10)
			b = append(b, `,"Since":`...)
			b = strconv.AppendInt(b, f.Since, 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, `,"Games":`...)
	if u.Games == nil {
		b = append(b, `null`...)
	} else {
		b = append(b, '[')
		for i := range u.Games {
			if i > 0 {
				b = append(b, ',')
			}
			g := &u.Games[i]
			b = append(b, `{"AppID":`...)
			b = strconv.AppendUint(b, uint64(g.AppID), 10)
			b = append(b, `,"TotalMinutes":`...)
			b = strconv.AppendInt(b, g.TotalMinutes, 10)
			b = append(b, `,"TwoWeekMinutes":`...)
			b = strconv.AppendInt(b, int64(g.TwoWeekMinutes), 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, `,"Groups":`...)
	b = appendUint64s(b, u.Groups)
	return append(b, '}', '}', '\n'), nil
}

func appendGroupLine(b []byte, g *GroupRecord) ([]byte, error) {
	b = append(b, `{"kind":"group","group":{"GID":`...)
	b = strconv.AppendUint(b, g.GID, 10)
	b = append(b, `,"Name":`...)
	b = appendString(b, g.Name)
	b = append(b, `,"Type":`...)
	b = appendString(b, g.Type)
	b = append(b, `,"Members":`...)
	b = appendUint64s(b, g.Members)
	return append(b, '}', '}', '\n'), nil
}

func appendUint64s(b []byte, v []uint64) []byte {
	if v == nil {
		return append(b, `null`...)
	}
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, x, 10)
	}
	return append(b, ']')
}

// --- decoding -----------------------------------------------------------

// interner dedups bounded-cardinality strings during decode. Country and
// city codes, game/group types, genres and developers are drawn from
// small fixed vocabularies, so a 500k-user decode otherwise allocates
// millions of copies of the same few hundred values; interning keeps one
// instance per distinct value per Reader. Lookups convert []byte keys
// without allocating (the compiler recognizes m[string(b)]). The table
// starts over once it holds internMax values, so a high-cardinality
// field cannot grow it without bound.
type interner struct{ m map[string]string }

const internMax = 4096

func (in *interner) intern(b []byte) string {
	if s, ok := in.m[string(b)]; ok {
		return s
	}
	s := string(b)
	if in.m == nil || len(in.m) >= internMax {
		in.m = make(map[string]string, 64)
	}
	in.m[s] = s
	return s
}

// span locates one record's list (or name) in a chunkDecoder scratch
// slice while its chunk decodes; lo < 0 marks a JSON null.
type span struct{ lo, hi int }

var nullSpan = span{lo: -1}

// chunkDecoder holds one Reader's decode state. The fast path appends
// every list item and name byte of a chunk to scratch slices that are
// reused from chunk to chunk; carve then copies each scratch slice once
// into a slab allocated for that chunk alone and hands every record its
// part of it. Slabs are never reused, so a record a consumer keeps stays
// valid however far the Reader advances.
type chunkDecoder struct {
	in      interner
	friends []FriendRecord
	owned   []OwnershipRecord
	ids     []uint64 // user Groups and group Members
	genres  []string
	achs    []AchievementRecord
	achName []span // achs[i].Name in text
	text    []byte // game, group and achievement names
}

// scratchMark is the length of every scratch slice, so a line the fast
// path gives up on part way can drop what it appended.
type scratchMark [7]int

func (d *chunkDecoder) mark() scratchMark {
	return scratchMark{len(d.friends), len(d.owned), len(d.ids), len(d.genres), len(d.achs), len(d.achName), len(d.text)}
}

func (d *chunkDecoder) rewind(m scratchMark) {
	d.friends, d.owned, d.ids, d.genres = d.friends[:m[0]], d.owned[:m[1]], d.ids[:m[2]], d.genres[:m[3]]
	d.achs, d.achName, d.text = d.achs[:m[4]], d.achName[:m[5]], d.text[:m[6]]
}

// newSlab copies a scratch slice into a fresh slab. It is never nil, so
// an empty list carved from it stays an empty, non-nil slice (which
// re-encodes as [] rather than null).
func newSlab[T any](scratch []T) []T {
	s := make([]T, len(scratch))
	copy(s, scratch)
	return s
}

// carveList returns the list sp locates in slab, with cap == len so an
// append by the consumer reallocates instead of overwriting the next
// record's list.
func carveList[T any](slab []T, sp span) []T {
	if sp.lo < 0 {
		return nil
	}
	return slab[sp.lo:sp.hi:sp.hi]
}

// carve moves the lists and names of the chunk's fast-decoded records
// out of scratch into this chunk's slabs and resets the scratch.
func (d *chunkDecoder) carve(recs []decodedLine) {
	friends, owned, ids := newSlab(d.friends), newSlab(d.owned), newSlab(d.ids)
	genres, achs := newSlab(d.genres), newSlab(d.achs)
	text := string(d.text)
	for i, sp := range d.achName {
		achs[i].Name = text[sp.lo:sp.hi]
	}
	for i := range recs {
		r := &recs[i]
		if !r.fast {
			continue
		}
		switch r.kind {
		case 'g':
			r.game.Name = text[r.name.lo:r.name.hi]
			r.game.Genres = carveList(genres, r.lists[0])
			r.game.Achievements = carveList(achs, r.lists[1])
		case 'u':
			r.user.Friends = carveList(friends, r.lists[0])
			r.user.Games = carveList(owned, r.lists[1])
			r.user.Groups = carveList(ids, r.lists[2])
		case 'p':
			r.group.Name = text[r.name.lo:r.name.hi]
			r.group.Members = carveList(ids, r.lists[0])
		}
	}
	d.rewind(scratchMark{})
}

// lineScanner is a strict cursor over one trimmed JSONL line. Every
// method reports failure instead of guessing; the caller treats any
// failure as "not the canonical layout" and falls back to encoding/json.
type lineScanner struct {
	b   []byte
	pos int
	d   *chunkDecoder
}

func (p *lineScanner) lit(s string) bool {
	if len(p.b)-p.pos < len(s) || string(p.b[p.pos:p.pos+len(s)]) != s {
		return false
	}
	p.pos += len(s)
	return true
}

func (p *lineScanner) done() bool { return p.pos == len(p.b) }

// digits consumes a run of ASCII digits and returns its value, which
// only means something for runs short enough not to overflow, and length.
func (p *lineScanner) digits() (uint64, int) {
	start := p.pos
	var v uint64
	for p.pos < len(p.b) {
		c := p.b[p.pos] - '0'
		if c > 9 {
			break
		}
		v = v*10 + uint64(c)
		p.pos++
	}
	return v, p.pos - start
}

// uint64v scans a canonical unsigned integer: a digit run with no
// leading zero. Up to 19 digits cannot overflow and are accumulated
// inline; a longer run goes through strconv, which rejects overflow.
// Anything else — a leading zero, a sign, no digits — is not a JSON
// integer the encoder wrote, and the line falls back to encoding/json.
func (p *lineScanner) uint64v() (uint64, bool) {
	start := p.pos
	v, n := p.digits()
	switch {
	case n == 0 || (n > 1 && p.b[start] == '0'):
		return 0, false
	case n <= 19:
		return v, true
	}
	v, err := strconv.ParseUint(string(p.b[start:p.pos]), 10, 64)
	return v, err == nil
}

// int64v is uint64v with an optional minus sign; up to 18 digits are
// accumulated inline.
func (p *lineScanner) int64v() (int64, bool) {
	start := p.pos
	neg := p.pos < len(p.b) && p.b[p.pos] == '-'
	if neg {
		p.pos++
	}
	first := p.pos
	v, n := p.digits()
	switch {
	case n == 0 || (n > 1 && p.b[first] == '0'):
		return 0, false
	case n <= 18:
		if neg {
			return -int64(v), true
		}
		return int64(v), true
	}
	x, err := strconv.ParseInt(string(p.b[start:p.pos]), 10, 64)
	return x, err == nil
}

// float64v scans a token of JSON's number grammar —
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? — and converts it with
// strconv, as encoding/json does. A token outside the grammar ("+5",
// ".5", "5.", "01") is not canonical.
func (p *lineScanner) float64v() (float64, bool) {
	start := p.pos
	if p.pos < len(p.b) && p.b[p.pos] == '-' {
		p.pos++
	}
	first := p.pos
	if _, n := p.digits(); n == 0 || (n > 1 && p.b[first] == '0') {
		return 0, false
	}
	if p.pos < len(p.b) && p.b[p.pos] == '.' {
		p.pos++
		if _, n := p.digits(); n == 0 {
			return 0, false
		}
	}
	if p.pos < len(p.b) && (p.b[p.pos] == 'e' || p.b[p.pos] == 'E') {
		p.pos++
		if p.pos < len(p.b) && (p.b[p.pos] == '+' || p.b[p.pos] == '-') {
			p.pos++
		}
		if _, n := p.digits(); n == 0 {
			return 0, false
		}
	}
	v, err := strconv.ParseFloat(string(p.b[start:p.pos]), 64)
	return v, err == nil
}

// stringBytes scans a JSON string whose bytes encoding/json would decode
// to themselves. Escape sequences are rare in this data (game names and
// country codes are plain text), so a backslash punts the whole line to
// the encoding/json fallback, as does a raw control byte (which
// encoding/json rejects) and invalid UTF-8 (which it replaces with
// U+FFFD).
func (p *lineScanner) stringBytes() ([]byte, bool) {
	if p.pos >= len(p.b) || p.b[p.pos] != '"' {
		return nil, false
	}
	p.pos++
	start := p.pos
	ascii := true
	for ; p.pos < len(p.b); p.pos++ {
		switch c := p.b[p.pos]; {
		case c == '"':
			b := p.b[start:p.pos]
			p.pos++
			return b, ascii || utf8.Valid(b)
		case c == '\\' || c < 0x20:
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

// textv scans a string into the chunk's name text and returns its span.
func (p *lineScanner) textv() (span, bool) {
	b, ok := p.stringBytes()
	if !ok {
		return span{}, false
	}
	lo := len(p.d.text)
	p.d.text = append(p.d.text, b...)
	return span{lo, len(p.d.text)}, true
}

// stringvI scans a string of a bounded vocabulary and interns it.
func (p *lineScanner) stringvI() (string, bool) {
	b, ok := p.stringBytes()
	if !ok {
		return "", false
	}
	return p.d.in.intern(b), true
}

func (p *lineScanner) boolv() (bool, bool) {
	if p.lit("true") {
		return true, true
	}
	if p.lit("false") {
		return false, true
	}
	return false, false
}

// scanList scans a list field's value: null, which sets sp to nullSpan,
// or [item,...], whose items it appends to scratch, setting sp to their
// range there.
func scanList[T any](p *lineScanner, scratch *[]T, sp *span, item func() (T, bool)) bool {
	if p.lit("null") {
		*sp = nullSpan
		return true
	}
	if !p.lit("[") {
		return false
	}
	lo := len(*scratch)
	for !p.lit("]") {
		if len(*scratch) > lo && !p.lit(",") {
			return false
		}
		v, ok := item()
		if !ok {
			return false
		}
		*scratch = append(*scratch, v)
	}
	*sp = span{lo, len(*scratch)}
	return true
}

func (p *lineScanner) achievement() (a AchievementRecord, ok bool) {
	if !p.lit(`{"Name":`) {
		return a, false
	}
	name, ok := p.textv()
	if !ok || !p.lit(`,"Percent":`) {
		return a, false
	}
	if a.Percent, ok = p.float64v(); !ok || !p.lit("}") {
		return a, false
	}
	p.d.achName = append(p.d.achName, name)
	return a, true
}

func (p *lineScanner) friend() (f FriendRecord, ok bool) {
	if !p.lit(`{"SteamID":`) {
		return f, false
	}
	if f.SteamID, ok = p.uint64v(); !ok || !p.lit(`,"Since":`) {
		return f, false
	}
	if f.Since, ok = p.int64v(); !ok {
		return f, false
	}
	return f, p.lit("}")
}

func (p *lineScanner) ownership() (g OwnershipRecord, ok bool) {
	if !p.lit(`{"AppID":`) {
		return g, false
	}
	appID, ok := p.uint64v()
	if !ok || appID > math.MaxUint32 || !p.lit(`,"TotalMinutes":`) {
		return g, false
	}
	g.AppID = uint32(appID)
	if g.TotalMinutes, ok = p.int64v(); !ok || !p.lit(`,"TwoWeekMinutes":`) {
		return g, false
	}
	tw, ok := p.int64v()
	if !ok || tw > math.MaxInt32 || tw < math.MinInt32 {
		return g, false
	}
	g.TwoWeekMinutes = int32(tw)
	return g, p.lit("}")
}

// decodedLine is one parsed JSONL record, kind-tagged like jsonlLine but
// value-typed so chunk decoding allocates nothing per line beyond the
// record payloads themselves.
type decodedLine struct {
	kind        byte // 'h', 'g', 'u', 'p' (group)
	collectedAt int64
	game        GameRecord
	user        UserRecord
	group       GroupRecord
	// fast marks a record of the fast path, whose lists and name carve
	// fills in from the spans below once its chunk is decoded: for a game
	// Genres and Achievements, for a user Friends, Games and Groups, for a
	// group Members.
	fast  bool
	name  span
	lists [3]span
}

// decodeLineFast parses one trimmed line of the canonical encoder
// layout, appending its lists and names to d's scratch. ok=false means
// "not canonical" — not an error; the scratch is rewound and the caller
// retries with encoding/json.
func decodeLineFast(trimmed []byte, out *decodedLine, d *chunkDecoder) bool {
	m := d.mark()
	out.fast = true
	if !decodeLine(&lineScanner{b: trimmed, d: d}, out) {
		d.rewind(m)
		out.fast = false
		return false
	}
	return true
}

func decodeLine(p *lineScanner, out *decodedLine) bool {
	if !p.lit(`{"kind":"`) {
		return false
	}
	switch {
	case p.lit(`header"`):
		out.kind = 'h'
		out.collectedAt = 0
		if p.lit(`}`) {
			return p.done()
		}
		if !p.lit(`,"collected_at":`) {
			return false
		}
		v, ok := p.int64v()
		if !ok {
			return false
		}
		out.collectedAt = v
		return p.lit(`}`) && p.done()
	case p.lit(`game","game":`):
		out.kind = 'g'
		return decodeGameFast(p, out) && p.lit(`}`) && p.done()
	case p.lit(`user","user":`):
		out.kind = 'u'
		return decodeUserFast(p, out) && p.lit(`}`) && p.done()
	case p.lit(`group","group":`):
		out.kind = 'p'
		return decodeGroupFast(p, out) && p.lit(`}`) && p.done()
	}
	return false
}

func decodeGameFast(p *lineScanner, out *decodedLine) bool {
	g := &out.game
	*g = GameRecord{}
	d := p.d
	if !p.lit(`{"AppID":`) {
		return false
	}
	appID, ok := p.uint64v()
	if !ok || appID > math.MaxUint32 {
		return false
	}
	g.AppID = uint32(appID)
	if !p.lit(`,"Name":`) {
		return false
	}
	if out.name, ok = p.textv(); !ok {
		return false
	}
	if !p.lit(`,"Type":`) {
		return false
	}
	if g.Type, ok = p.stringvI(); !ok {
		return false
	}
	if !p.lit(`,"Genres":`) || !scanList(p, &d.genres, &out.lists[0], p.stringvI) {
		return false
	}
	if !p.lit(`,"Multiplayer":`) {
		return false
	}
	if g.Multiplayer, ok = p.boolv(); !ok {
		return false
	}
	if !p.lit(`,"PriceCents":`) {
		return false
	}
	if g.PriceCents, ok = p.int64v(); !ok {
		return false
	}
	if !p.lit(`,"Metacritic":`) {
		return false
	}
	mc, ok := p.int64v()
	if !ok {
		return false
	}
	g.Metacritic = int(mc)
	if !p.lit(`,"ReleaseYear":`) {
		return false
	}
	ry, ok := p.int64v()
	if !ok {
		return false
	}
	g.ReleaseYear = int(ry)
	if !p.lit(`,"Developer":`) {
		return false
	}
	if g.Developer, ok = p.stringvI(); !ok {
		return false
	}
	return p.lit(`,"Achievements":`) && scanList(p, &d.achs, &out.lists[1], p.achievement) && p.lit("}")
}

func decodeUserFast(p *lineScanner, out *decodedLine) bool {
	u := &out.user
	*u = UserRecord{}
	d := p.d
	if !p.lit(`{"SteamID":`) {
		return false
	}
	var ok bool
	if u.SteamID, ok = p.uint64v(); !ok {
		return false
	}
	if !p.lit(`,"Created":`) {
		return false
	}
	if u.Created, ok = p.int64v(); !ok {
		return false
	}
	if !p.lit(`,"Country":`) {
		return false
	}
	if u.Country, ok = p.stringvI(); !ok {
		return false
	}
	if !p.lit(`,"City":`) {
		return false
	}
	if u.City, ok = p.stringvI(); !ok {
		return false
	}
	return p.lit(`,"Friends":`) && scanList(p, &d.friends, &out.lists[0], p.friend) &&
		p.lit(`,"Games":`) && scanList(p, &d.owned, &out.lists[1], p.ownership) &&
		p.lit(`,"Groups":`) && scanList(p, &d.ids, &out.lists[2], p.uint64v) && p.lit("}")
}

func decodeGroupFast(p *lineScanner, out *decodedLine) bool {
	g := &out.group
	*g = GroupRecord{}
	if !p.lit(`{"GID":`) {
		return false
	}
	var ok bool
	if g.GID, ok = p.uint64v(); !ok {
		return false
	}
	if !p.lit(`,"Name":`) {
		return false
	}
	if out.name, ok = p.textv(); !ok {
		return false
	}
	if !p.lit(`,"Type":`) {
		return false
	}
	if g.Type, ok = p.stringvI(); !ok {
		return false
	}
	return p.lit(`,"Members":`) && scanList(p, &p.d.ids, &out.lists[0], p.uint64v) && p.lit("}")
}
