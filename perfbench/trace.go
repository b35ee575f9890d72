package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// span is one timed call into a layer of the program, recorded around the
// call from the benchmark's own code; the program itself is not
// instrumented. Start and End are wall-clock Unix nanoseconds so spans
// from stage processes line up with the parent's. The resource deltas
// (CPU, allocation, GC) are for the whole process over the span, so they
// include any concurrent work of that process.
type span struct {
	Name    string  `json:"name"`
	RunID   string  `json:"run"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // -1 for a root
	Start   int64   `json:"start_ns"`
	End     int64   `json:"end_ns"`
	CPU     float64 `json:"cpu_s"`
	AllocB  uint64  `json:"alloc_bytes"`
	Mallocs uint64  `json:"mallocs"`
	GC      uint32  `json:"gc_cycles"`
}

func (s *span) wall() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps spans in memory; they are written out once, when the run
// ends. A disabled tracer records nothing and costs one branch per call,
// which is how the untraced (end-to-end) runs use it.
type tracer struct {
	on    bool
	runID string
	spans []span
	stack []int
}

// do runs f inside a span named name, nested under the innermost open
// span.
func (t *tracer) do(name string, f func() error) error {
	if !t.on {
		return f()
	}
	end := t.begin(name)
	err := f()
	end()
	return err
}

// begin opens a span and returns the function that closes it. Spans must
// close in reverse order of opening.
func (t *tracer) begin(name string) func() {
	if !t.on {
		return func() {}
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	cpu0 := processCPU()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t.spans = append(t.spans, span{Name: name, RunID: t.runID, ID: id, Parent: parent, Start: time.Now().UnixNano()})
	t.stack = append(t.stack, id)
	return func() {
		end := time.Now().UnixNano()
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		s := &t.spans[id]
		s.End = end
		s.CPU = processCPU() - cpu0
		s.AllocB = m1.TotalAlloc - m0.TotalAlloc
		s.Mallocs = m1.Mallocs - m0.Mallocs
		s.GC = m1.NumGC - m0.NumGC
		t.stack = t.stack[:len(t.stack)-1]
	}
}

// adopt appends spans recorded by another process (a pipeline stage or
// the query server) under parent, renumbering their IDs.
func (t *tracer) adopt(spans []span, parent int) {
	base := len(t.spans)
	for _, s := range spans {
		s.ID += base
		if s.Parent < 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		s.RunID = t.runID
		t.spans = append(t.spans, s)
	}
}

// processCPU is the process's user+system CPU time in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its direct children.
func selfTimes(spans []span) []float64 {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, k := range kids[s.ID] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB int64
		for j, v := range ivs {
			if j == 0 || v.a > curB {
				covered += curB - curA
				curA, curB = v.a, v.b
			} else if v.b > curB {
				curB = v.b
			}
		}
		covered += curB - curA
		self[i] = float64(s.End-s.Start-covered) / 1e9
	}
	return self
}

// layerTotals sums each span name's wall, self, CPU, allocation and GC
// figures over the run.
type layerTotal struct {
	Count   int     `json:"count"`
	Wall    float64 `json:"wall_s"`
	Self    float64 `json:"self_s"`
	CPU     float64 `json:"cpu_s"`
	AllocMi float64 `json:"alloc_mib"`
	Mallocs uint64  `json:"mallocs"`
	GC      uint32  `json:"gc_cycles"`
}

func layerTotals(spans []span) map[string]*layerTotal {
	self := selfTimes(spans)
	out := make(map[string]*layerTotal)
	for i, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotal{}
			out[s.Name] = lt
		}
		lt.Count++
		lt.Wall += s.wall()
		lt.Self += self[i]
		lt.CPU += s.CPU
		lt.AllocMi += float64(s.AllocB) / (1 << 20)
		lt.Mallocs += s.Mallocs
		lt.GC += s.GC
	}
	return out
}
