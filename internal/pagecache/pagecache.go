// Package pagecache models the Linux write-back page cache as the JIT-GC
// paper describes it (§3.2.1): buffered writes dirty cache pages; a flusher
// thread wakes every p seconds and evicts dirty data that (1) is older than
// the expiration threshold τ_expire, or (2) overflows the flush threshold
// τ_flush. The per-page dirty ages this model exposes are exactly the
// host-side information the buffered-write predictor consumes.
package pagecache

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"time"
)

// Config parameterizes the cache model.
type Config struct {
	// PageSize is the cache page size in bytes.
	PageSize int
	// CapacityPages bounds the number of dirty pages the cache may hold.
	// Writes beyond the bound force synchronous eviction of the oldest
	// dirty pages (modelling direct reclaim).
	CapacityPages int
	// FlusherPeriod is p, the flusher thread wake interval.
	FlusherPeriod time.Duration
	// Expire is τ_expire: dirty data older than this is written back at
	// the next flusher wake-up.
	Expire time.Duration
	// FlushRatio is τ_flush expressed as a fraction of CapacityPages: when
	// the dirty set exceeds it, the flusher also writes back the oldest
	// dirty pages until the dirty set fits again.
	FlushRatio float64
}

// maxPages bounds both the cache capacity and the length of one write, so
// the dirty list's 32-bit slot numbers cannot overflow.
const maxPages = 1 << 29

// DefaultConfig mirrors the paper's running example: p = 5 s,
// τ_expire = 30 s, τ_flush = 10%.
func DefaultConfig() Config {
	return Config{
		PageSize:      4096,
		CapacityPages: 1 << 18, // 1 GiB of 4 KiB pages
		FlusherPeriod: 5 * time.Second,
		Expire:        30 * time.Second,
		FlushRatio:    0.10,
	}
}

// Validate reports configuration errors, including the paper's structural
// assumption that τ_expire is a multiple of p.
func (c Config) Validate() error {
	switch {
	case c.PageSize <= 0:
		return fmt.Errorf("pagecache: page size %d", c.PageSize)
	case c.CapacityPages <= 0 || c.CapacityPages > maxPages:
		return fmt.Errorf("pagecache: capacity %d pages outside (0,%d]", c.CapacityPages, maxPages)
	case c.FlusherPeriod <= 0:
		return fmt.Errorf("pagecache: flusher period %v", c.FlusherPeriod)
	case c.Expire <= 0:
		return fmt.Errorf("pagecache: expire %v", c.Expire)
	case c.Expire%c.FlusherPeriod != 0:
		return fmt.Errorf("pagecache: expire %v is not a multiple of flusher period %v", c.Expire, c.FlusherPeriod)
	case c.FlushRatio <= 0 || c.FlushRatio > 1:
		return fmt.Errorf("pagecache: flush ratio %v outside (0,1]", c.FlushRatio)
	}
	return nil
}

// Nwb returns τ_expire / p, the number of write-back intervals the
// buffered-write predictor looks ahead.
func (c Config) Nwb() int { return int(c.Expire / c.FlusherPeriod) }

// FlushLimit returns τ_flush in pages: the dirty-set size above which the
// flusher also writes back the oldest pages.
func (c Config) FlushLimit() int { return int(c.FlushRatio * float64(c.CapacityPages)) }

// DirtyPage is a snapshot entry of one dirty cache page.
type DirtyPage struct {
	LPN int64
	// LastUpdate is when the page was last written; an overwrite resets it
	// (the paper's B → B′ example), postponing write-back.
	LastUpdate time.Duration
}

// Stats counts traffic through the cache.
type Stats struct {
	// WrittenPages counts buffered page writes into the cache (rewrites of
	// an already-dirty page included).
	WrittenPages int64
	// FlushedPages counts pages evicted to the SSD.
	FlushedPages int64
	// ExpiredFlushes counts pages flushed by the τ_expire condition.
	ExpiredFlushes int64
	// PressureFlushes counts pages flushed by the τ_flush condition or by
	// direct reclaim on a full cache.
	PressureFlushes int64
	// Overwrites counts writes that hit an already-dirty page — the pages
	// whose on-SSD copies the SIP list marks soon-to-be-invalidated.
	Overwrites int64
}

// Cache is the write-back cache model. It is not safe for concurrent use.
//
// The dirty pages form one list kept in (lastUpdate, LPN) order, oldest
// first, threaded through a slot array and indexed by LPN. Simulated time
// only moves forward, so a write links its pages at the tail; the flusher
// and direct reclaim pop from the head; the predictor walks the list in
// place. Nothing is ever sorted.
type Cache struct {
	cfg   Config
	index map[int64]int32 // LPN → slot of a dirty page
	// slots[0] is the sentinel of the circular list: its next is the
	// oldest dirty page, its prev the newest. Released slots are chained
	// through next from free (0 = none).
	slots []slot
	free  int32
	stats Stats

	// flushBuf backs the slices Write and Flush return, so the flusher
	// tick and direct reclaim stop allocating.
	flushBuf []int64
}

// slot is one dirty page's list node.
type slot struct {
	lpn        int64
	last       time.Duration
	prev, next int32
}

// ErrBadLPN is returned for a negative logical page number or a page range
// that runs past the largest one.
var ErrBadLPN = errors.New("pagecache: LPN out of range")

// New creates a cache from cfg.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Cache{cfg: cfg, index: make(map[int64]int32), slots: make([]slot, 1)}, nil
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the traffic counters.
func (c *Cache) Stats() Stats { return c.stats }

// DirtyPageCount returns the current number of dirty pages.
func (c *Cache) DirtyPageCount() int { return len(c.index) }

// Write records a buffered write of n consecutive pages starting at lpn at
// time now. If the cache would exceed its capacity, the oldest dirty pages
// are reclaimed synchronously and returned so the caller can issue them to
// the SSD immediately (they count as pressure flushes). The returned slice
// shares the cache's scratch buffer and is valid only until the next Write
// or Flush call.
func (c *Cache) Write(now time.Duration, lpn int64, n int) (reclaimed []int64, err error) {
	if lpn < 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadLPN, lpn)
	}
	if n <= 0 || n > maxPages {
		return nil, fmt.Errorf("pagecache: write of %d pages", n)
	}
	if lpn > math.MaxInt64-int64(n-1) {
		return nil, fmt.Errorf("%w: %d pages from %d overflow", ErrBadLPN, n, lpn)
	}
	// The pages share one timestamp and ascend, so once the first is
	// placed every later one links directly behind its predecessor.
	var at int32
	for i := 0; i < n; i++ {
		p := lpn + int64(i)
		s, ok := c.index[p]
		if ok {
			c.stats.Overwrites++
			c.unlink(s)
		} else {
			s = c.alloc(p)
			c.index[p] = s
		}
		c.slots[s].last = now
		if i == 0 {
			at = c.placeFor(now, p)
		}
		c.linkAfter(s, at)
		at = s
	}
	c.stats.WrittenPages += int64(n)
	if over := len(c.index) - c.cfg.CapacityPages; over > 0 {
		reclaimed = c.popOldestInto(c.flushBuf[:0], over)
		c.flushBuf = reclaimed
		c.stats.PressureFlushes += int64(len(reclaimed))
		c.stats.FlushedPages += int64(len(reclaimed))
	}
	return reclaimed, nil
}

// Flush runs the flusher thread at time now (a multiple of FlusherPeriod in
// normal operation) and returns the LPNs written back, oldest first:
// every page older than τ_expire, plus — if the dirty set still exceeds
// τ_flush — the oldest remaining pages down to the threshold. The returned
// slice shares the cache's scratch buffer and is valid only until the next
// Write or Flush call.
func (c *Cache) Flush(now time.Duration) []int64 {
	out := c.flushBuf[:0]
	// Expired pages are a prefix of the age-ordered list.
	for h := c.slots[0].next; h != 0 && now-c.slots[h].last >= c.cfg.Expire; h = c.slots[0].next {
		out = append(out, c.release(h))
	}
	c.stats.ExpiredFlushes += int64(len(out))

	if over := len(c.index) - c.cfg.FlushLimit(); over > 0 {
		before := len(out)
		out = c.popOldestInto(out, over)
		c.stats.PressureFlushes += int64(len(out) - before)
	}
	c.stats.FlushedPages += int64(len(out))
	c.flushBuf = out
	return out
}

// popOldestInto removes the n oldest dirty pages and appends them to dst.
func (c *Cache) popOldestInto(dst []int64, n int) []int64 {
	for ; n > 0 && c.slots[0].next != 0; n-- {
		dst = append(dst, c.release(c.slots[0].next))
	}
	return dst
}

// All yields every dirty page, oldest first (ties by LPN) — the scan the
// buffered-write predictor performs. The cache must not be modified while
// the sequence is being iterated.
func (c *Cache) All() iter.Seq[DirtyPage] {
	return func(yield func(DirtyPage) bool) {
		for s := c.slots[0].next; s != 0; s = c.slots[s].next {
			if !yield(DirtyPage{LPN: c.slots[s].lpn, LastUpdate: c.slots[s].last}) {
				return
			}
		}
	}
}

// IsDirty reports whether lpn currently has a dirty copy in the cache —
// reads of such pages are served from RAM without touching the device.
func (c *Cache) IsDirty(lpn int64) bool {
	_, ok := c.index[lpn]
	return ok
}

// Drop discards a dirty page without writing it back (e.g. the file was
// deleted). It reports whether the page was dirty.
func (c *Cache) Drop(lpn int64) bool {
	s, ok := c.index[lpn]
	if !ok {
		return false
	}
	c.release(s)
	return true
}

// placeFor returns the slot a page written at now with number lpn links
// behind: the last one ordered before (now, lpn), or the sentinel. The
// walk back from the tail crosses only pages written at now with larger
// LPNs — or, for an out-of-order now, every page written after it.
func (c *Cache) placeFor(now time.Duration, lpn int64) int32 {
	at := c.slots[0].prev
	for at != 0 {
		s := &c.slots[at]
		if s.last < now || (s.last == now && s.lpn < lpn) {
			break
		}
		at = s.prev
	}
	return at
}

// linkAfter links slot s into the list right behind slot at.
func (c *Cache) linkAfter(s, at int32) {
	next := c.slots[at].next
	c.slots[s].prev, c.slots[s].next = at, next
	c.slots[at].next = s
	c.slots[next].prev = s
}

// unlink takes slot s out of the list.
func (c *Cache) unlink(s int32) {
	prev, next := c.slots[s].prev, c.slots[s].next
	c.slots[prev].next = next
	c.slots[next].prev = prev
}

// alloc returns an unlinked slot holding lpn.
func (c *Cache) alloc(lpn int64) int32 {
	s := c.free
	if s != 0 {
		c.free = c.slots[s].next
	} else {
		s = int32(len(c.slots))
		c.slots = append(c.slots, slot{})
	}
	c.slots[s].lpn = lpn
	return s
}

// release removes the dirty page in slot s from the list and the index,
// frees the slot, and returns the page's LPN.
func (c *Cache) release(s int32) int64 {
	c.unlink(s)
	lpn := c.slots[s].lpn
	delete(c.index, lpn)
	c.slots[s].next = c.free
	c.free = s
	return lpn
}
