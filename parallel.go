package jitgc

import (
	"sync"
	"sync/atomic"
)

// runGrid executes fn(0), fn(1), …, fn(n-1) on up to opt.Workers
// goroutines (see Options.Workers). Every cell is independent and writes
// its result into a pre-indexed slot owned by the caller, so the assembled
// output is identical to a serial run regardless of scheduling. The first
// error — ties broken by lowest cell index, matching serial order — stops
// un-started cells; cells already running finish their current simulation.
func runGrid(opt Options, n int, fn func(i int) error) error {
	workers := min(opt.workers(), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next     atomic.Int64 // next cell to claim
		stop     atomic.Bool  // set by the first failure
		mu       sync.Mutex
		firstIdx = n
		firstErr error
		wg       sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if i < firstIdx {
						firstIdx, firstErr = i, err
					}
					mu.Unlock()
					stop.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
