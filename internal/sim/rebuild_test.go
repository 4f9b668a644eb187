package sim

import (
	"testing"
	"time"

	"jitgc/internal/core"
	"jitgc/internal/nand"
	"jitgc/internal/trace"
)

// TestRebuildHooksLifecycle exercises the maintenance I/O surface the array
// rebuild/rebalance paths drive: writes land in the FTL map and book the
// device timeline, reads queue behind in-flight work (or come from RAM when
// the page is still dirty in the cache), trims are metadata-only, and none
// of it is counted as host requests.
func TestRebuildHooksLifecycle(t *testing.T) {
	s := newSim(t, tinyConfig(), lazyFactory)
	if err := s.Begin(); err != nil {
		t.Fatalf("Begin: %v", err)
	}

	c1, err := s.RebuildWrite(time.Millisecond, 0, 4)
	if err != nil {
		t.Fatalf("RebuildWrite: %v", err)
	}
	if c1 <= time.Millisecond {
		t.Errorf("write completion %v did not advance past issue time", c1)
	}
	if got := s.DeviceFreeAt(); got != c1 {
		t.Errorf("DeviceFreeAt = %v, want the write's completion %v", got, c1)
	}
	for lp := int64(0); lp < 4; lp++ {
		if s.FTL().MappedPPN(lp) == -1 {
			t.Errorf("rebuild-written local %d unmapped", lp)
		}
	}

	// A read issued while the write is still in flight queues behind it on
	// the device timeline.
	c2, err := s.RebuildRead(time.Millisecond, 0, 4)
	if err != nil {
		t.Fatalf("RebuildRead: %v", err)
	}
	if c2 <= c1 {
		t.Errorf("queued read completed at %v, not after the in-flight write's %v", c2, c1)
	}

	// A page still dirty in the cache is served from RAM: no device time.
	if _, err := s.StepRequest(trace.Request{
		Time: c2, Kind: trace.BufferedWrite, LPN: 100, Pages: 1,
	}); err != nil {
		t.Fatalf("StepRequest: %v", err)
	}
	free := s.DeviceFreeAt()
	c3, err := s.RebuildRead(c2, 100, 1)
	if err != nil {
		t.Fatalf("RebuildRead(dirty): %v", err)
	}
	if want := c2 + ramLatency; c3 != want {
		t.Errorf("dirty-page rebuild read completed at %v, want RAM latency %v", c3, want)
	}
	if s.DeviceFreeAt() != free {
		t.Error("RAM-served rebuild read advanced the device timeline")
	}

	// Trims drop mappings and dirty cached copies without device time.
	if err := s.RebuildTrim(c3, 0, 4); err != nil {
		t.Fatalf("RebuildTrim: %v", err)
	}
	for lp := int64(0); lp < 4; lp++ {
		if s.FTL().MappedPPN(lp) != -1 {
			t.Errorf("trimmed local %d still mapped", lp)
		}
	}
	if err := s.RebuildTrim(c3, 100, 1); err != nil {
		t.Fatalf("RebuildTrim(dirty): %v", err)
	}
	if s.Cache().IsDirty(100) {
		t.Error("trimmed page still dirty in the cache")
	}

	if got := s.Results().Requests; got != 1 {
		t.Errorf("host requests = %d, want 1: maintenance I/O must not be counted", got)
	}
}

// TestRebuildHooksBoundsChecked pins the capacity validation on all three
// maintenance entry points.
func TestRebuildHooksBoundsChecked(t *testing.T) {
	s := newSim(t, tinyConfig(), lazyFactory)
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	capacity := s.FTL().UserPages()
	if _, err := s.RebuildRead(0, -1, 1); err == nil {
		t.Error("negative-lpn rebuild read accepted")
	}
	if _, err := s.RebuildRead(0, capacity, 1); err == nil {
		t.Error("beyond-capacity rebuild read accepted")
	}
	if _, err := s.RebuildWrite(0, capacity-1, 2); err == nil {
		t.Error("rebuild write crossing capacity accepted")
	}
	if err := s.RebuildTrim(0, -1, 1); err == nil {
		t.Error("negative-lpn rebuild trim accepted")
	}
	if err := s.RebuildTrim(0, capacity, 1); err == nil {
		t.Error("beyond-capacity rebuild trim accepted")
	}
}

// TestRebuildHooksFaultsPropagate makes sure device failures surface to the
// caller — the array degrades rebuild sources and aborts rebuilds on these
// errors, so they must not be swallowed.
func TestRebuildHooksFaultsPropagate(t *testing.T) {
	s := newSim(t, tinyConfig(), lazyFactory)
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RebuildWrite(time.Millisecond, 0, 1); err != nil {
		t.Fatalf("RebuildWrite: %v", err)
	}
	fm := nand.NewFaultModel(nand.FaultConfig{Seed: 1})
	s.FTL().Device().SetFaultInjector(fm)
	fm.FailFrom(nand.OpProgram, 0)
	if _, err := s.RebuildWrite(2*time.Millisecond, 1, 1); err == nil {
		t.Error("program fault swallowed by RebuildWrite")
	}
	fm.FailFrom(nand.OpRead, 0)
	if _, err := s.RebuildRead(3*time.Millisecond, 0, 1); err == nil {
		t.Error("read fault swallowed by RebuildRead")
	}
}

// TestRebuildTrimRunsPendingBGC: like a host TRIM at the same instant,
// RebuildTrim first runs the background GC pending in the idle gap before
// it, so those collections see the mapping as it was before the trim.
func TestRebuildTrimRunsPendingBGC(t *testing.T) {
	collections := func(trim func(s *Simulator, at time.Duration) error) int64 {
		cfg := tinyConfig()
		cfg.PreconditionPages = 200
		s := newSim(t, cfg, lazyFactory)
		if err := s.Begin(); err != nil {
			t.Fatal(err)
		}
		// Overwrite half the working set so victims hold invalid pages.
		done, err := s.RebuildWrite(0, 0, 100)
		if err != nil {
			t.Fatal(err)
		}
		s.TickApply(done, core.Decision{ReclaimBytes: 1 << 20})
		if err := trim(s, done+10*time.Second); err != nil {
			t.Fatal(err)
		}
		return s.FTL().Stats().BGCCollections
	}
	host := collections(func(s *Simulator, at time.Duration) error {
		_, err := s.StepRequest(trace.Request{Time: at, Kind: trace.Trim, LPN: 150, Pages: 1})
		return err
	})
	rebuild := collections(func(s *Simulator, at time.Duration) error {
		return s.RebuildTrim(at, 150, 1)
	})
	if host == 0 {
		t.Fatal("host TRIM ran no pending collection; the case is not exercised")
	}
	if rebuild != host {
		t.Errorf("RebuildTrim ran %d pending collections, host TRIM %d", rebuild, host)
	}
}
