// Package graph provides the friendship-graph analyses of §4: the
// compressed adjacency structure, cumulative network-evolution series
// (Fig 1), per-year and cumulative degree distributions (Fig 2), neighbor
// attribute aggregates for the §7 homophily correlations, connected
// components, and degree assortativity.
package graph

import (
	"math"
	"slices"
	"sort"
	"time"
)

// Edge is one undirected friendship with its formation time (Unix secs).
type Edge struct {
	A, B  int32
	Since int64
}

// Graph is an undirected graph in CSR (compressed sparse row) form, which
// keeps adjacency iteration cache-friendly for the multi-hundred-thousand
// node universes this repository analyzes.
type Graph struct {
	n       int
	offsets []int32
	targets []int32
	// edges retains the original timestamped edge list (sorted by Since).
	edges []Edge
}

// Build constructs the CSR graph for n nodes from the edge list. Edges
// must reference nodes in [0, n); duplicates are the caller's concern.
func Build(n int, edges []Edge) *Graph {
	g := &Graph{n: n, edges: edges}
	deg := make([]int32, n)
	for _, e := range edges {
		deg[e.A]++
		deg[e.B]++
	}
	g.offsets = make([]int32, n+1)
	for i := 0; i < n; i++ {
		g.offsets[i+1] = g.offsets[i] + deg[i]
	}
	g.targets = make([]int32, g.offsets[n])
	fill := make([]int32, n)
	for _, e := range edges {
		g.targets[g.offsets[e.A]+fill[e.A]] = e.B
		fill[e.A]++
		g.targets[g.offsets[e.B]+fill[e.B]] = e.A
		fill[e.B]++
	}
	return g
}

// N returns the node count.
func (g *Graph) N() int { return g.n }

// M returns the edge count.
func (g *Graph) M() int { return len(g.edges) }

// Degree returns the degree of node v.
func (g *Graph) Degree(v int32) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the adjacency slice of node v (do not modify).
func (g *Graph) Neighbors(v int32) []int32 {
	return g.targets[g.offsets[v]:g.offsets[v+1]]
}

// Degrees returns every node's degree.
func (g *Graph) Degrees() []int {
	out := make([]int, g.n)
	for i := 0; i < g.n; i++ {
		out[i] = g.Degree(int32(i))
	}
	return out
}

// EvolutionPoint is one point of the Fig 1 series: cumulative counts at
// the end of a month.
type EvolutionPoint struct {
	Year, Month int
	// Users is the cumulative number of accounts created by then.
	Users int
	// Friendships is the cumulative number of edges formed by then.
	Friendships int
}

// Evolution computes the Fig 1 monthly series between from and to (Unix
// seconds) given account creation times. Only friendships with Since >=
// from are counted, reflecting that Steam recorded no timestamps before
// September 2008 — the reason Fig 1 does not reach the full edge total.
func (g *Graph) Evolution(created []int64, from, to int64) []EvolutionPoint {
	sortedCreated := append([]int64(nil), created...)
	slices.Sort(sortedCreated)

	var out []EvolutionPoint
	t := time.Unix(from, 0).UTC()
	t = time.Date(t.Year(), t.Month(), 1, 0, 0, 0, 0, time.UTC)
	end := time.Unix(to, 0).UTC()
	ei := 0
	edgeCount := 0
	for !t.After(end) {
		next := t.AddDate(0, 1, 0)
		cutoff := next.Unix()
		for ei < len(g.edges) && g.edges[ei].Since < cutoff {
			if g.edges[ei].Since >= from {
				edgeCount++
			}
			ei++
		}
		users := sort.Search(len(sortedCreated), func(i int) bool {
			return sortedCreated[i] >= cutoff
		})
		out = append(out, EvolutionPoint{
			Year: t.Year(), Month: int(t.Month()),
			Users: users, Friendships: edgeCount,
		})
		t = next
	}
	return out
}

// DegreesAt returns each node's degree counting only edges formed strictly
// before cutoff — the basis of Fig 2's "through year Y" distributions.
func (g *Graph) DegreesAt(cutoff int64) []int {
	deg := make([]int, g.n)
	for _, e := range g.edges {
		if e.Since >= cutoff {
			break // edges are sorted by Since
		}
		deg[e.A]++
		deg[e.B]++
	}
	return deg
}

// DegreesAdded returns each node's degree gain within [from, to) — the
// basis of Fig 2's "year Y only" distributions.
func (g *Graph) DegreesAdded(from, to int64) []int {
	deg := make([]int, g.n)
	for _, e := range g.edges {
		if e.Since >= to {
			break
		}
		if e.Since >= from {
			deg[e.A]++
			deg[e.B]++
		}
	}
	return deg
}

// NeighborAverages returns, for every node with at least minDegree
// neighbors, the pair (own attribute, mean neighbor attribute). This is
// the Fig 11 homophily computation.
func (g *Graph) NeighborAverages(attr []float64, minDegree int) (own, nbr []float64) {
	if minDegree < 1 {
		minDegree = 1
	}
	for v := int32(0); int(v) < g.n; v++ {
		ns := g.Neighbors(v)
		if len(ns) < minDegree {
			continue
		}
		sum := 0.0
		for _, u := range ns {
			sum += attr[u]
		}
		own = append(own, attr[v])
		nbr = append(nbr, sum/float64(len(ns)))
	}
	return own, nbr
}

// Components labels connected components and returns (labels, sizes)
// with labels in [0, len(sizes)). Runs an iterative BFS (no recursion, so
// giant components do not exhaust the stack).
func (g *Graph) Components() ([]int32, []int) {
	labels := make([]int32, g.n)
	for i := range labels {
		labels[i] = -1
	}
	var sizes []int
	var queue []int32
	for start := int32(0); int(start) < g.n; start++ {
		if labels[start] != -1 {
			continue
		}
		label := int32(len(sizes))
		size := 0
		queue = append(queue[:0], start)
		labels[start] = label
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			size++
			for _, u := range g.Neighbors(v) {
				if labels[u] == -1 {
					labels[u] = label
					queue = append(queue, u)
				}
			}
		}
		sizes = append(sizes, size)
	}
	return labels, sizes
}

// LargestComponent returns the size of the largest connected component
// and its share of all nodes with at least one edge.
func (g *Graph) LargestComponent() (size int, shareOfConnected float64) {
	_, sizes := g.Components()
	connected := 0
	for v := int32(0); int(v) < g.n; v++ {
		if g.Degree(v) > 0 {
			connected++
		}
	}
	for _, s := range sizes {
		if s > size {
			size = s
		}
	}
	if connected == 0 {
		return 0, 0
	}
	// Singleton components of isolated nodes inflate sizes; the largest
	// component is what matters, measured against connected nodes.
	return size, float64(size) / float64(connected)
}

// DegreeAssortativity computes the Pearson correlation of degrees across
// edges (Newman's r): positive values mean high-degree users befriend
// high-degree users, the §10.3 "network of friends" signature.
func (g *Graph) DegreeAssortativity() float64 {
	if len(g.edges) == 0 {
		return 0
	}
	var sx, sy, sxx, syy, sxy float64
	n := float64(len(g.edges) * 2)
	for _, e := range g.edges {
		// Each undirected edge contributes both orientations, which makes
		// the measure symmetric.
		da, db := float64(g.Degree(e.A)), float64(g.Degree(e.B))
		sx += da + db
		sy += db + da
		sxx += da*da + db*db
		syy += db*db + da*da
		sxy += 2 * da * db
	}
	mx, my := sx/n, sy/n
	cov := sxy/n - mx*my
	vx := sxx/n - mx*mx
	vy := syy/n - my*my
	if vx <= 0 || vy <= 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}
