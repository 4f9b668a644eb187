package array

import (
	"testing"
	"time"

	"jitgc/internal/sim"
	"jitgc/internal/trace"
)

// TestArrayRequestAtTickInstantServedFirst pins the event loop's tie rule
// on an array: a request arriving exactly at a write-back tick is served
// before the tick, closed or open loop.
func TestArrayRequestAtTickInstantServedFirst(t *testing.T) {
	period := tinyDevice().Cache.FlusherPeriod
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
			dev := tinyDevice()
			dev.RecordTimeline = true
			a := newArray(t, Config{Devices: 2, StripePages: 4, Device: dev})
			reqs := []trace.Request{{Time: tc.at, Kind: trace.BufferedWrite, LPN: 0, Pages: 4}}
			var err error
			if tc.closed {
				_, err = a.RunClosedLoop(reqs)
			} else {
				err = sim.Replay(a, period, reqs, false)
			}
			if err != nil {
				t.Fatal(err)
			}
			tl := a.Device(0).Timeline()
			if len(tl) == 0 || tl[0].T != period {
				t.Fatalf("first timeline sample missing or not at %v: %+v", period, tl)
			}
			if tl[0].DirtyPages != tc.dirty {
				t.Errorf("dirty pages at the first tick = %d, want %d", tl[0].DirtyPages, tc.dirty)
			}
		})
	}
}

// TestArrayDrainWaitsForMaintenance: with every cache clean, pending
// growth keeps the drain ticking past the last request until the reshape
// has run to completion.
func TestArrayDrainWaitsForMaintenance(t *testing.T) {
	a := newArray(t, Config{
		Devices: 2, StripePages: 8, GrowDevices: 1, GrowAfter: 5 * time.Second,
		Device: tinyDevice(),
	})
	res, err := a.RunClosedLoop(stripedWrites(a, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.GrownDevices != 1 || res.RebalancedStripes == 0 {
		t.Errorf("grown %d devices, rebalanced %d stripes; want 1 and > 0",
			res.GrownDevices, res.RebalancedStripes)
	}
	if a.maintenancePending() {
		t.Error("run returned with maintenance still pending")
	}
}

// TestArrayDrainIgnoresDegradedDirtyPages: a degraded member's cache can
// never drain, so the drain stops once only degraded members hold dirty
// pages instead of ticking forever.
func TestArrayDrainIgnoresDegradedDirtyPages(t *testing.T) {
	a := newArray(t, Config{Devices: 2, StripePages: 8, Device: tinyDevice()})
	killMember(a, 1, 0)
	// Stripe 1 lives on member 1. The first write expires at the 7 s tick,
	// whose flush fails and degrades the member; the second is still young
	// then and stays dirty in the dead member's cache.
	if _, err := a.RunClosedLoop([]trace.Request{
		{Time: 100 * time.Millisecond, Kind: trace.BufferedWrite, LPN: 8, Pages: 4},
		{Time: 3 * time.Second, Kind: trace.BufferedWrite, LPN: 12, Pages: 4},
	}); err != nil {
		t.Fatal(err)
	}
	if a.Degraded(1) == nil {
		t.Fatal("member 1 not degraded")
	}
	if a.Device(1).DirtyPages() == 0 {
		t.Error("degraded member holds no dirty pages; the case is not exercised")
	}
}
