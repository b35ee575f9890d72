package simworld

import "slices"

// Columns is a structure-of-arrays view of the per-user universe: the
// handful of scalar attributes the paper's tables run over, packed into
// parallel slices so a paper-scale pass touches a few flat arrays instead
// of chasing per-user pointers. Index i corresponds to u.Users[i]; the
// variable-length genre histogram is CSR-encoded, and the label tables
// are interned (one string per distinct genre/country).
type Columns struct {
	TotalMinutes   []int64
	TwoWeekMinutes []int64
	LibrarySize    []int32
	// AccountAge is seconds between account creation and the crawl end.
	AccountAge   []int64
	FriendDegree []int32
	GroupCount   []int32

	// GenreOffsets/GenreCells hold each user's owned-games-per-genre
	// histogram: user i's cells are GenreCells[GenreOffsets[i]:
	// GenreOffsets[i+1]], each packing genreIndex<<24 | count. Genre
	// indexes follow the Genres table (bit order of GenreNames).
	GenreOffsets []int64
	GenreCells   []uint32

	// Genres and Countries are the interned label tables: every label the
	// columns refer to, each allocated exactly once.
	Genres    []string
	Countries []string
}

// GenreCell accessors for the packed histogram entries.
func GenreCellIndex(cell uint32) int { return int(cell >> 24) }
func GenreCellCount(cell uint32) int { return int(cell & 0xffffff) }

// BuildColumns extracts the columnar view in two flat passes over the
// users (one to size the CSR arrays, one to fill them); nothing in the
// result points back into the Universe except the interned strings.
func (u *Universe) BuildColumns() *Columns {
	n := len(u.Users)
	c := &Columns{
		TotalMinutes:   make([]int64, n),
		TwoWeekMinutes: make([]int64, n),
		LibrarySize:    make([]int32, n),
		AccountAge:     make([]int64, n),
		FriendDegree:   make([]int32, n),
		GroupCount:     make([]int32, n),
		GenreOffsets:   make([]int64, n+1),
		Genres:         GenreNames[:],
	}
	for _, f := range u.Friendships {
		c.FriendDegree[f.A]++
		c.FriendDegree[f.B]++
	}

	// Pass 1: scalars plus the number of non-empty genre cells per user.
	var hist [genreCount]int32
	countCells := func(user *User) int {
		hist = [genreCount]int32{}
		for k := range user.Library {
			mask := u.Games[user.Library[k].GameIdx].Genres
			for b := 0; b < genreCount; b++ {
				if mask&(1<<b) != 0 {
					hist[b]++
				}
			}
		}
		cells := 0
		for _, h := range hist {
			if h > 0 {
				cells++
			}
		}
		return cells
	}
	countries := map[string]struct{}{}
	for i := range u.Users {
		user := &u.Users[i]
		c.TotalMinutes[i] = user.TotalMinutes
		c.TwoWeekMinutes[i] = user.TwoWeekMinutes
		c.LibrarySize[i] = int32(len(user.Library))
		c.AccountAge[i] = u.CollectedAt - user.Created
		c.GroupCount[i] = int32(len(user.Groups))
		c.GenreOffsets[i+1] = c.GenreOffsets[i] + int64(countCells(user))
		if user.Country != "" {
			countries[user.Country] = struct{}{}
		}
	}

	// Pass 2: fill the genre cells.
	c.GenreCells = make([]uint32, c.GenreOffsets[n])
	for i := range u.Users {
		countCells(&u.Users[i])
		off := c.GenreOffsets[i]
		for b := 0; b < genreCount; b++ {
			if hist[b] > 0 {
				c.GenreCells[off] = uint32(b)<<24 | uint32(hist[b])
				off++
			}
		}
	}

	c.Countries = make([]string, 0, len(countries))
	for code := range countries {
		c.Countries = append(c.Countries, code)
	}
	slices.Sort(c.Countries)
	return c
}

// FriendCSR returns the adjacency in compressed-sparse-row form: user
// i's incident edges are edges[offsets[i]:offsets[i+1]], each an index
// into u.Friendships, listed in edge-list encounter order — the same
// per-user order Adjacency produces. Storing edge indexes instead of
// (peer, since) pairs keeps the CSR at four bytes per directed edge;
// callers recover the peer as the friendship endpoint that is not i.
func (u *Universe) FriendCSR() (offsets []int64, edges []int32) {
	n := len(u.Users)
	offsets = make([]int64, n+1)
	for _, f := range u.Friendships {
		offsets[f.A+1]++
		offsets[f.B+1]++
	}
	for i := 0; i < n; i++ {
		offsets[i+1] += offsets[i]
	}
	edges = make([]int32, offsets[n])
	cur := make([]int64, n)
	copy(cur, offsets[:n])
	for e, f := range u.Friendships {
		edges[cur[f.A]] = int32(e)
		cur[f.A]++
		edges[cur[f.B]] = int32(e)
		cur[f.B]++
	}
	return offsets, edges
}
