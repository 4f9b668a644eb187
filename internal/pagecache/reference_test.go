package pagecache

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// refCache is the original page-cache model, kept as the oracle for the
// age-ordered list: a map of dirty pages that every flush, eviction and
// snapshot re-sorts by (lastUpdate, LPN). Its only difference from the
// original is that it copies the slices it returns.
type refCache struct {
	cfg   Config
	dirty map[int64]time.Duration
	stats Stats
}

func newRefCache(cfg Config) *refCache {
	return &refCache{cfg: cfg, dirty: make(map[int64]time.Duration)}
}

func (c *refCache) Write(now time.Duration, lpn int64, n int) []int64 {
	for i := 0; i < n; i++ {
		p := lpn + int64(i)
		if _, ok := c.dirty[p]; ok {
			c.stats.Overwrites++
		}
		c.dirty[p] = now
		c.stats.WrittenPages++
	}
	var reclaimed []int64
	if over := len(c.dirty) - c.cfg.CapacityPages; over > 0 {
		reclaimed = c.evictOldest(nil, over)
		c.stats.PressureFlushes += int64(len(reclaimed))
		c.stats.FlushedPages += int64(len(reclaimed))
	}
	return reclaimed
}

func (c *refCache) Flush(now time.Duration) []int64 {
	var out []int64
	for lpn, last := range c.dirty {
		if now-last >= c.cfg.Expire {
			out = append(out, lpn)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ti, tj := c.dirty[out[i]], c.dirty[out[j]]
		if ti != tj {
			return ti < tj
		}
		return out[i] < out[j]
	})
	for _, lpn := range out {
		delete(c.dirty, lpn)
	}
	c.stats.ExpiredFlushes += int64(len(out))
	if limit := int(c.cfg.FlushRatio * float64(c.cfg.CapacityPages)); len(c.dirty) > limit {
		before := len(out)
		out = c.evictOldest(out, len(c.dirty)-limit)
		c.stats.PressureFlushes += int64(len(out) - before)
	}
	c.stats.FlushedPages += int64(len(out))
	return out
}

func (c *refCache) evictOldest(dst []int64, n int) []int64 {
	all := c.DirtyPages()
	for i := 0; i < n && i < len(all); i++ {
		dst = append(dst, all[i].LPN)
		delete(c.dirty, all[i].LPN)
	}
	return dst
}

func (c *refCache) DirtyPages() []DirtyPage {
	out := make([]DirtyPage, 0, len(c.dirty))
	for lpn, last := range c.dirty {
		out = append(out, DirtyPage{LPN: lpn, LastUpdate: last})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].LastUpdate != out[j].LastUpdate {
			return out[i].LastUpdate < out[j].LastUpdate
		}
		return out[i].LPN < out[j].LPN
	})
	return out
}

func (c *refCache) IsDirty(lpn int64) bool {
	_, ok := c.dirty[lpn]
	return ok
}

func (c *refCache) Drop(lpn int64) bool {
	if _, ok := c.dirty[lpn]; !ok {
		return false
	}
	delete(c.dirty, lpn)
	return true
}

// diffSeed drives one random operation sequence through both caches. The
// generator favours the cases an ordered list gets wrong: several writes
// at one instant with descending LPNs, clock steps backwards, rewrites of
// overlapping extents, a capacity small enough for direct reclaim, and
// flusher ticks that leave both expired pages and τ_flush overflow.
type diffSeed int64

func (diffSeed) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(diffSeed(r.Int63()))
}

func runDifferential(seed diffSeed) error {
	r := rand.New(rand.NewSource(int64(seed)))
	cfg := Config{
		PageSize:      4096,
		CapacityPages: 8 + r.Intn(120),
		FlusherPeriod: time.Second,
		Expire:        time.Duration(1+r.Intn(6)) * time.Second,
		FlushRatio:    0.1 + 0.9*r.Float64(),
	}
	got, err := New(cfg)
	if err != nil {
		return err
	}
	want := newRefCache(cfg)
	lpnSpace := int64(16 + r.Intn(240))
	var clock time.Duration
	for step := 0; step < 400; step++ {
		switch op := r.Intn(16); {
		case op < 9:
			switch r.Intn(4) {
			case 0: // same instant as the previous write
			case 1: // an out-of-order timestamp
				clock -= time.Duration(r.Intn(3000)) * time.Millisecond
				clock = max(clock, 0)
			default:
				clock += time.Duration(r.Intn(1500)) * time.Millisecond
			}
			lpn, n := r.Int63n(lpnSpace), 1+r.Intn(12)
			rec, err := got.Write(clock, lpn, n)
			if err != nil {
				return err
			}
			if w := want.Write(clock, lpn, n); !slices.Equal(rec, w) {
				return fmt.Errorf("step %d: Write(%v, %d, %d) reclaimed %v, want %v", step, clock, lpn, n, rec, w)
			}
		case op < 12:
			at := clock + time.Duration(r.Intn(8000))*time.Millisecond
			if g, w := got.Flush(at), want.Flush(at); !slices.Equal(g, w) {
				return fmt.Errorf("step %d: Flush(%v) = %v, want %v", step, at, g, w)
			}
		case op < 14:
			lpn := r.Int63n(lpnSpace)
			if g, w := got.Drop(lpn), want.Drop(lpn); g != w {
				return fmt.Errorf("step %d: Drop(%d) = %v, want %v", step, lpn, g, w)
			}
		default:
			lpn := r.Int63n(lpnSpace)
			if g, w := got.IsDirty(lpn), want.IsDirty(lpn); g != w {
				return fmt.Errorf("step %d: IsDirty(%d) = %v, want %v", step, lpn, g, w)
			}
		}
		if g, w := got.Stats(), want.stats; g != w {
			return fmt.Errorf("step %d: Stats = %+v, want %+v", step, g, w)
		}
		if g, w := slices.Collect(got.All()), want.DirtyPages(); !slices.Equal(g, w) {
			return fmt.Errorf("step %d: dirty pages = %v, want %v", step, g, w)
		}
		if g, w := got.DirtyPageCount(), len(want.dirty); g != w {
			return fmt.Errorf("step %d: DirtyPageCount = %d, want %d", step, g, w)
		}
	}
	return nil
}

// TestMatchesReferenceCache checks the age-ordered list against the
// map+sort model it replaced: identical returned slices, counters and
// dirty snapshots after every operation of random sequences.
func TestMatchesReferenceCache(t *testing.T) {
	f := func(seed diffSeed) bool {
		if err := runDifferential(seed); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
