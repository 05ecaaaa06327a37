// Package par provides the bounded fork-join primitives used by the
// sweep engine, the synth corpus evaluation and the experiment runner.
// All helpers preserve determinism by construction: workers only write to
// disjoint, index-addressed slots, and any order-sensitive reduction is
// left to the (serial) caller.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers clamps a requested parallelism degree to [1, n]: 0 (or any
// negative value) means "one worker per CPU", and the result never
// exceeds n, the number of work items.
func Workers(requested, n int) int {
	w := requested
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ForEach runs fn(i) for every i in [0, n) on at most workers
// goroutines (0 means one per CPU). fn must only touch state owned by
// index i; ForEach returns once every call has completed. With
// workers <= 1 (or n <= 1) everything runs on the calling goroutine in
// index order, reproducing a plain loop exactly.
func ForEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers, n)
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// MapErr runs fn(i) for every i in [0, n) on at most workers goroutines
// and collects each call's result into slot i of the returned slice.
// The first failure stops further items from starting (in-flight items
// finish), and the lowest-indexed error among the items that ran is
// returned — with one worker that is exactly the error a serial loop
// would have stopped on.
func MapErr[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	var failed atomic.Bool
	ForEach(n, workers, func(i int) {
		if failed.Load() {
			return
		}
		out[i], errs[i] = fn(i)
		if errs[i] != nil {
			failed.Store(true)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
