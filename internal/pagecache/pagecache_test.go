package pagecache

import (
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func testConfig() Config {
	return Config{
		PageSize:      4096,
		CapacityPages: 1000,
		FlusherPeriod: 5 * time.Second,
		Expire:        30 * time.Second,
		FlushRatio:    0.5,
	}
}

func newCache(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.PageSize = 0 },
		func(c *Config) { c.CapacityPages = 0 },
		func(c *Config) { c.CapacityPages = maxPages + 1 },
		func(c *Config) { c.FlusherPeriod = 0 },
		func(c *Config) { c.Expire = 0 },
		func(c *Config) { c.Expire = 7 * time.Second }, // not a multiple of p
		func(c *Config) { c.FlushRatio = 0 },
		func(c *Config) { c.FlushRatio = 1.5 },
	}
	for i, m := range mutations {
		cfg := testConfig()
		m(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted: %+v", i, cfg)
		}
	}
}

func TestNwb(t *testing.T) {
	if got := testConfig().Nwb(); got != 6 {
		t.Errorf("Nwb = %d, want 6", got)
	}
}

func TestWriteValidatesArguments(t *testing.T) {
	c := newCache(t, testConfig())
	if _, err := c.Write(0, -1, 1); err == nil {
		t.Error("negative LPN accepted")
	}
	if _, err := c.Write(0, 0, 0); err == nil {
		t.Error("zero-length write accepted")
	}
	if _, err := c.Write(0, 0, maxPages+1); err == nil {
		t.Error("write longer than maxPages accepted")
	}
}

// A range whose last page lies past math.MaxInt64 used to wrap around and
// mark math.MinInt64 dirty.
func TestWriteRejectsOverflowingRange(t *testing.T) {
	c := newCache(t, testConfig())
	if _, err := c.Write(0, math.MaxInt64, 2); !errors.Is(err, ErrBadLPN) {
		t.Errorf("Write(0, MaxInt64, 2) err = %v, want ErrBadLPN", err)
	}
	if n := c.DirtyPageCount(); n != 0 || c.IsDirty(math.MinInt64) || c.Stats() != (Stats{}) {
		t.Errorf("rejected write changed state: %d dirty, stats %+v", n, c.Stats())
	}
	if _, err := c.Write(0, math.MaxInt64, 1); err != nil {
		t.Errorf("write of the last page rejected: %v", err)
	}
}

// Pages written at one instant stay in LPN order whatever order they
// arrive in, and a write stamped before the newest page is placed by age.
func TestSameInstantAndOutOfOrderPlacement(t *testing.T) {
	c := newCache(t, testConfig())
	for _, w := range []struct {
		at  time.Duration
		lpn int64
		n   int
	}{
		{time.Second, 20, 2}, {time.Second, 10, 2}, {time.Second, 15, 1},
		{3 * time.Second, 1, 1}, {2 * time.Second, 30, 1}, {time.Second, 21, 1},
	} {
		if _, err := c.Write(w.at, w.lpn, w.n); err != nil {
			t.Fatal(err)
		}
	}
	var got []int64
	for pg := range c.All() {
		got = append(got, pg.LPN)
	}
	if want := []int64{10, 11, 15, 20, 21, 30, 1}; !slices.Equal(got, want) {
		t.Errorf("dirty order = %v, want %v", got, want)
	}
}

func TestExpiryFlush(t *testing.T) {
	c := newCache(t, testConfig())
	if _, err := c.Write(2*time.Second, 10, 3); err != nil {
		t.Fatal(err)
	}
	// Not yet expired at 30s (age 28s).
	if got := c.Flush(30 * time.Second); len(got) != 0 {
		t.Errorf("flush at 30s = %v, want none", got)
	}
	// Expired at 35s (age 33s ≥ 30s).
	got := c.Flush(35 * time.Second)
	if len(got) != 3 {
		t.Fatalf("flush at 35s = %v, want 3 pages", got)
	}
	for i, lpn := range got {
		if lpn != int64(10+i) {
			t.Errorf("flushed[%d] = %d, want %d", i, lpn, 10+i)
		}
	}
	if c.DirtyPageCount() != 0 {
		t.Errorf("dirty count after flush = %d", c.DirtyPageCount())
	}
}

func TestOverwriteResetsAge(t *testing.T) {
	c := newCache(t, testConfig())
	if _, err := c.Write(0, 5, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(20*time.Second, 5, 1); err != nil { // B → B′
		t.Fatal(err)
	}
	if got := c.Flush(35 * time.Second); len(got) != 0 {
		t.Errorf("rewritten page flushed at 35s: %v (age only 15s)", got)
	}
	if got := c.Flush(50 * time.Second); len(got) != 1 {
		t.Errorf("rewritten page not flushed at 50s: %v", got)
	}
	st := c.Stats()
	if st.Overwrites != 1 {
		t.Errorf("overwrites = %d, want 1", st.Overwrites)
	}
}

func TestPressureFlushKeepsDirtyAtThreshold(t *testing.T) {
	cfg := testConfig() // capacity 1000, ratio 0.5 → limit 500
	c := newCache(t, cfg)
	if _, err := c.Write(time.Second, 0, 700); err != nil {
		t.Fatal(err)
	}
	got := c.Flush(5 * time.Second) // nothing expired, but 700 > 500
	if len(got) != 200 {
		t.Fatalf("pressure flush = %d pages, want 200", len(got))
	}
	if c.DirtyPageCount() != 500 {
		t.Errorf("dirty after pressure flush = %d, want 500", c.DirtyPageCount())
	}
	if st := c.Stats(); st.PressureFlushes != 200 {
		t.Errorf("pressure flush counter = %d, want 200", st.PressureFlushes)
	}
}

func TestPressureFlushEvictsOldestFirst(t *testing.T) {
	cfg := testConfig()
	c := newCache(t, cfg)
	if _, err := c.Write(time.Second, 1000, 300); err != nil { // older
		t.Fatal(err)
	}
	if _, err := c.Write(2*time.Second, 2000, 300); err != nil { // newer
		t.Fatal(err)
	}
	got := c.Flush(5 * time.Second) // 600 > 500 → flush 100 oldest
	if len(got) != 100 {
		t.Fatalf("pressure flush = %d pages, want 100", len(got))
	}
	for _, lpn := range got {
		if lpn < 1000 || lpn >= 1300 {
			t.Errorf("flushed %d, want from the older extent [1000,1300)", lpn)
		}
	}
}

func TestCapacityReclaimOnWrite(t *testing.T) {
	cfg := testConfig() // capacity 1000
	c := newCache(t, cfg)
	if _, err := c.Write(time.Second, 0, 900); err != nil {
		t.Fatal(err)
	}
	reclaimed, err := c.Write(2*time.Second, 5000, 200) // 1100 > 1000
	if err != nil {
		t.Fatal(err)
	}
	if len(reclaimed) != 100 {
		t.Fatalf("reclaimed = %d pages, want 100", len(reclaimed))
	}
	for _, lpn := range reclaimed {
		if lpn >= 900 {
			t.Errorf("reclaimed %d, want oldest extent pages", lpn)
		}
	}
	if c.DirtyPageCount() != 1000 {
		t.Errorf("dirty after reclaim = %d, want 1000", c.DirtyPageCount())
	}
}

func TestDirtyPagesSnapshotSorted(t *testing.T) {
	c := newCache(t, testConfig())
	if _, err := c.Write(3*time.Second, 30, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(time.Second, 10, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(time.Second, 5, 1); err != nil {
		t.Fatal(err)
	}
	pages := slices.Collect(c.All())
	if len(pages) != 3 {
		t.Fatalf("snapshot size = %d", len(pages))
	}
	if pages[0].LPN != 5 || pages[1].LPN != 10 || pages[2].LPN != 30 {
		t.Errorf("snapshot order = %v (want oldest first, ties by LPN)", pages)
	}
}

func TestDrop(t *testing.T) {
	c := newCache(t, testConfig())
	if _, err := c.Write(0, 7, 1); err != nil {
		t.Fatal(err)
	}
	if !c.Drop(7) {
		t.Error("Drop of dirty page returned false")
	}
	if c.Drop(7) {
		t.Error("Drop of clean page returned true")
	}
	if c.DirtyPageCount() != 0 {
		t.Error("page still dirty after Drop")
	}
}

func TestStatsCounters(t *testing.T) {
	c := newCache(t, testConfig())
	if _, err := c.Write(0, 0, 10); err != nil {
		t.Fatal(err)
	}
	c.Flush(40 * time.Second)
	st := c.Stats()
	if st.WrittenPages != 10 || st.FlushedPages != 10 || st.ExpiredFlushes != 10 {
		t.Errorf("stats = %+v", st)
	}
}

// Property: a dirty page is never flushed before its age reaches τ_expire
// (absent pressure), and always flushed by the first wake-up after expiry.
func TestFlushTimingProperty(t *testing.T) {
	cfg := testConfig()
	cfg.CapacityPages = 1 << 20 // no pressure
	f := func(writesRaw []uint16) bool {
		c, err := New(cfg)
		if err != nil {
			return false
		}
		writeTime := make(map[int64]time.Duration)
		var clock time.Duration
		for _, w := range writesRaw {
			clock += time.Duration(w%4000) * time.Millisecond
			lpn := int64(w % 64)
			if _, err := c.Write(clock, lpn, 1); err != nil {
				return false
			}
			writeTime[lpn] = clock
		}
		// Run the flusher over enough wake-ups to drain everything.
		end := clock + cfg.Expire + 2*cfg.FlusherPeriod
		for at := cfg.FlusherPeriod; at <= end; at += cfg.FlusherPeriod {
			for _, lpn := range c.Flush(at) {
				age := at - writeTime[lpn]
				if age < cfg.Expire {
					return false // flushed too early
				}
				if age >= cfg.Expire+cfg.FlusherPeriod && at-cfg.FlusherPeriod >= writeTime[lpn]+cfg.Expire {
					return false // missed an earlier wake-up it was due at
				}
				delete(writeTime, lpn)
			}
		}
		return c.DirtyPageCount() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
