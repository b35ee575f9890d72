// Package par is the bounded worker pool behind the deterministic
// parallel analysis engine. Every fan-out in the analysis layer (the
// xmin scan, the bootstrap GoF replicates, Table 4's per-metric
// classification, RunAll's per-experiment rendering) goes through this
// package so the determinism contract lives in one place:
//
//   - work is addressed by index, and each unit writes only to its own
//     index-assigned slot (a slice element, a struct field);
//   - any randomness is drawn from a per-index stream derived with
//     randx.Split/SplitN, never from a stream shared across units;
//   - results are merged in index order, never in completion order.
//
// Under those rules the output of a fan-out is a pure function of its
// inputs — byte-identical for any worker count, including 1 — and the
// worker count is purely a throughput knob.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// N resolves a Workers knob to a concrete worker count: values <= 0 mean
// "one worker per logical CPU" (GOMAXPROCS), so zero values ask for full
// parallelism and 1 forces the serial path.
func N(workers int) int {
	if workers > 0 {
		return workers
	}
	return runtime.GOMAXPROCS(0)
}

// For runs fn(i) for every i in [0, n) on at most N(workers) goroutines
// and returns when all calls have completed. Work is handed out
// dynamically, so fn must follow the package's determinism contract:
// fn(i) may depend only on i and on state that no other unit writes, and
// must store its result in an index-i slot. For calls fn inline when the
// resolved worker count is 1 or n < 2, so the serial path has zero
// goroutine overhead.
func For(workers, n int, fn func(i int)) {
	w := N(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Run executes the given functions on at most N(workers) goroutines and
// returns when all have completed. It is For for heterogeneous work —
// e.g. fitting the independent candidate families of a heavy-tail fit
// concurrently — with the same contract: each function writes only to
// state no other function touches.
func Run(workers int, fns ...func()) {
	For(workers, len(fns), func(i int) { fns[i]() })
}

// Ordered is the bounded ordered pipeline behind the crawler's tail-phase
// fan-out: produce(i) runs for every i in [0, n) on at most N(workers)
// goroutines, while consume(i, v) is called from the caller's goroutine
// in strict index order — never concurrently, never out of order. At
// most 2*workers productions are in flight, so memory stays bounded no
// matter how far the fastest producer runs ahead of the consumer.
//
// The determinism contract holds by construction: produce follows the
// package rules (a pure function of i plus read-only shared state) and
// the index-ordered consume makes the observable output identical for
// any worker count, including the inline serial path at workers==1.
//
// A consume error stops further consume calls but not production: every
// produce(i) still runs exactly once (rarely wasteful, never leaky —
// no goroutine is left blocked). The first consume error is returned.
func Ordered[T any](workers, n int, produce func(i int) T, consume func(i int, v T) error) error {
	w := N(workers)
	if w > n {
		w = n
	}
	var err error
	if w <= 1 {
		for i := 0; i < n; i++ {
			v := produce(i)
			if err == nil {
				err = consume(i, v)
			}
		}
		return err
	}
	window := 2 * w
	if window > n {
		window = n
	}
	// A ring of single-slot channels: production i deposits into slot
	// i%window, and the semaphore guarantees slot reuse only after the
	// consumer has drained the previous occupant.
	slots := make([]chan T, window)
	for i := range slots {
		slots[i] = make(chan T, 1)
	}
	sem := make(chan struct{}, window)
	go func() {
		for i := 0; i < n; i++ {
			sem <- struct{}{}
			go func(i int) { slots[i%window] <- produce(i) }(i)
		}
	}()
	for i := 0; i < n; i++ {
		v := <-slots[i%window]
		if err == nil {
			err = consume(i, v)
		}
		<-sem
	}
	return err
}
