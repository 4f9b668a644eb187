package sim

import (
	"testing"
	"time"

	"jitgc/internal/trace"
)

// TestRequestAtTickInstantServedFirst pins the tie rule of the event loop:
// a request arriving exactly at a write-back tick is served before the
// tick, so the tick's timeline sample already counts its dirty pages. One
// nanosecond later the request lands after the tick instead.
func TestRequestAtTickInstantServedFirst(t *testing.T) {
	period := tinyConfig().Cache.FlusherPeriod
	for _, tc := range []struct {
		name   string
		closed bool
		at     time.Duration
		dirty  int
	}{
		{"closed/at-tick", true, period, 4},
		{"closed/after-tick", true, period + 1, 0},
		{"open/at-tick", false, period, 4},
		{"open/after-tick", false, period + 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tinyConfig()
			cfg.RecordTimeline = true
			s := newSim(t, cfg, lazyFactory)
			reqs := []trace.Request{{Time: tc.at, Kind: trace.BufferedWrite, LPN: 0, Pages: 4}}
			run := s.Run
			if tc.closed {
				run = s.RunClosedLoop
			}
			if _, err := run(reqs); err != nil {
				t.Fatal(err)
			}
			tl := s.Timeline()
			if len(tl) == 0 || tl[0].T != period {
				t.Fatalf("first timeline sample missing or not at %v: %+v", period, tl)
			}
			if tl[0].DirtyPages != tc.dirty {
				t.Errorf("dirty pages at the first tick = %d, want %d", tl[0].DirtyPages, tc.dirty)
			}
		})
	}
}

// TestDrainTicksUntilCacheClean pins the drain rule: after the last request
// ticks keep firing while the cache holds dirty pages and stop at the first
// tick that leaves it clean; without DrainCache no tick fires at all.
func TestDrainTicksUntilCacheClean(t *testing.T) {
	for _, drain := range []bool{true, false} {
		cfg := tinyConfig()
		cfg.RecordTimeline = true
		cfg.DrainCache = drain
		s := newSim(t, cfg, lazyFactory)
		if _, err := s.RunClosedLoop([]trace.Request{
			{Time: 100 * time.Millisecond, Kind: trace.BufferedWrite, LPN: 0, Pages: 4},
		}); err != nil {
			t.Fatal(err)
		}
		tl := s.Timeline()
		if !drain {
			if len(tl) != 0 || s.DirtyPages() != 4 {
				t.Errorf("no-drain run ticked %d times, left %d dirty pages; want 0 and 4",
					len(tl), s.DirtyPages())
			}
			continue
		}
		if s.DirtyPages() != 0 {
			t.Fatalf("drained run left %d dirty pages", s.DirtyPages())
		}
		for i, p := range tl[:len(tl)-1] {
			if p.DirtyPages == 0 {
				t.Errorf("tick %d (%v) left the cache clean but ticking went on", i, p.T)
			}
		}
		if last := tl[len(tl)-1]; last.DirtyPages != 0 {
			t.Errorf("last tick at %v left %d dirty pages", last.T, last.DirtyPages)
		}
	}
}
