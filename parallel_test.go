package jitgc

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
)

// TestNormCellGuardsDegenerateBaselines covers the report-table guard: a
// zero baseline IOPS/WAF produces NaN or Inf ratios, which must surface as
// "n/a" instead of leaking into the tables.
func TestNormCellGuardsDegenerateBaselines(t *testing.T) {
	var zero, r Results
	r.IOPS, r.WAF = 1000, 1.5
	if got := normCell(r.NormalizedIOPS(zero)); got != "n/a" {
		t.Errorf("NaN cell = %q, want n/a", got)
	}
	if got := normCell(math.Inf(1)); got != "n/a" {
		t.Errorf("Inf cell = %q, want n/a", got)
	}
	if got := normCell(1.234); got != "1.234" {
		t.Errorf("finite cell = %q", got)
	}
	if got := normLifetimeCell(5, 0); got != "n/a" {
		t.Errorf("zero lifetime baseline = %q, want n/a", got)
	}
}

func TestRunIndexedVisitsEveryCellOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		const n = 37
		visits := make([]int32, n)
		err := runGrid(Options{Workers: workers}, n, func(i int) error {
			atomic.AddInt32(&visits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range visits {
			if v != 1 {
				t.Errorf("workers=%d: cell %d visited %d times", workers, i, v)
			}
		}
	}
}

func TestRunIndexedEmptyAndClampedWorkers(t *testing.T) {
	if err := runGrid(Options{Workers: 4}, 0, nil); err != nil {
		t.Errorf("n=0: %v", err)
	}
	// A non-positive worker count means GOMAXPROCS, and more workers than
	// cells clamp to one per cell; neither deadlocks or skips a cell.
	for _, workers := range []int{-2, 16} {
		var ran atomic.Int32
		err := runGrid(Options{Workers: workers}, 3, func(int) error {
			ran.Add(1)
			return nil
		})
		if err != nil || ran.Load() != 3 {
			t.Errorf("workers=%d: err=%v ran=%d", workers, err, ran.Load())
		}
	}
}

func TestRunIndexedReturnsLowestIndexError(t *testing.T) {
	boom := func(i int) error { return fmt.Errorf("cell %d failed", i) }
	for _, workers := range []int{1, 4} {
		err := runGrid(Options{Workers: workers}, 8, func(i int) error {
			if i == 2 || i == 5 {
				return boom(i)
			}
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: no error", workers)
		}
		// Workers may have claimed cell 5 before cell 2 failed; the pool
		// must still report the lowest failing index, like the serial run.
		if got := err.Error(); got != "cell 2 failed" {
			t.Errorf("workers=%d: err = %q, want cell 2", workers, got)
		}
	}
}

func TestRunIndexedCancelsRemainingCells(t *testing.T) {
	var ran int32
	sentinel := errors.New("stop")
	err := runGrid(Options{Workers: 2}, 1000, func(i int) error {
		atomic.AddInt32(&ran, 1)
		if i == 0 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if n := atomic.LoadInt32(&ran); n == 1000 {
		t.Error("error did not cancel un-started cells")
	}
}

// TestGridDeterministicAcrossWorkerCounts is the parallel runner's
// load-bearing guarantee: the full experiment grid renders byte-identical
// reports for the same seed whether cells run serially (Workers=1) or fan
// out (Workers=8), because every cell writes a pre-indexed slot. The
// lifetime experiment is excluded only for wall-clock (it pins Ops to
// 30000 and replays to wear-out); it assembles its grid with the same
// runGrid helper the covered experiments exercise. The scale experiment
// is excluded because its ns/write column *is* wall-clock, so two runs
// never render identically (its deterministic columns are pinned by
// TestScaleExperimentSmallPreset); it too fans out through runGrid.
func TestGridDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs most of the experiment grid twice")
	}
	render := func(workers int) map[string]string {
		out := make(map[string]string)
		for _, e := range Experiments() {
			if e.ID == "lifetime" || e.ID == "scale" {
				continue
			}
			tables, err := e.Run(Options{Seed: 1, Ops: 2000, Workers: workers})
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, e.ID, err)
			}
			var s string
			for _, tb := range tables {
				s += tb.String() + "\n"
			}
			out[e.ID] = s
		}
		return out
	}
	serial := render(1)
	parallel := render(8)
	for id, want := range serial {
		if got := parallel[id]; got != want {
			t.Errorf("%s: Workers=8 output differs from Workers=1:\n--- serial ---\n%s\n--- parallel ---\n%s", id, want, got)
		}
	}
}
