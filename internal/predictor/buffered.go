package predictor

import (
	"time"

	"jitgc/internal/pagecache"
)

// Buffered is the write demand predictor for buffered writes (paper
// §3.2.1). Invoked right after the flusher thread runs at time t, it scans
// the dirty pages of the page cache and computes, for each future
// write-back interval I^i_wb(t), an upper bound D^i_buf(t) on the data that
// will be flushed to the SSD in that interval — while collecting the SIP
// list of logical addresses whose old on-SSD copies those flushes will
// invalidate.
//
// Following the paper, the predictor relaxes the τ_flush condition: it
// assumes every dirty page is flushed once it is older than τ_expire,
// which over-predicts by at most τ_flush but never misses a flush (missed
// flushes are what cause expensive foreground GC).
type Buffered struct {
	cache *pagecache.Cache
	wb    WriteBack
	// Strict, when set, applies the second flusher condition instead of
	// relaxing it: nothing is predicted unless the dirty set already
	// exceeds τ_flush. This reproduces the under-prediction failure mode
	// the paper warns about and exists for the ablation benchmark.
	Strict bool
	// DisableHotFilter turns off hot-page exclusion (ablation knob).
	DisableHotFilter bool

	// firstDirty tracks when each page was first seen dirty in its current
	// dirty episode. A page continuously dirty for longer than τ_expire
	// must be getting rewritten faster than it can expire — it will not
	// flush within the horizon, so counting it in Dbuf every window would
	// chronically over-predict. Such hot pages are excluded from demand
	// but kept on the SIP list (their stale flash copies are the surest
	// soon-to-be-invalidated pages of all).
	//
	// An episode lasts while every scan finds the page dirty: an entry not
	// stamped by the previous scan is stale, and the page starts a fresh
	// episode. A page flushed or dropped and re-dirtied between two scans
	// thus keeps its episode. Stale entries are swept once they outnumber
	// the live ones.
	firstDirty map[int64]episode
	scans      uint64

	// Steady-state scratch backing the slices Predict returns.
	demand Demand
	sip    []int64
}

// episode is one page's dirty episode as the hot filter sees it.
type episode struct {
	first time.Duration // LastUpdate when a scan first saw the page dirty
	scan  uint64        // the last scan that saw it dirty
}

// NewBuffered builds a buffered-write predictor over a page cache. The
// write-back parameters are taken from the cache configuration.
func NewBuffered(cache *pagecache.Cache) *Buffered {
	cfg := cache.Config()
	return &Buffered{
		cache:      cache,
		wb:         WriteBack{Period: cfg.FlusherPeriod, Expire: cfg.Expire},
		firstDirty: make(map[int64]episode),
		demand:     make(Demand, cfg.Nwb()),
	}
}

// WriteBack returns the predictor's timing parameters.
func (b *Buffered) WriteBack() WriteBack { return b.wb }

// Predict computes Dbuf(now) and the SIP list. now must be a flusher
// wake-up instant (the predictor runs right after the flusher). It walks
// the dirty pages once, oldest first, and allocates nothing in steady
// state: both returned slices share the predictor's scratch and are valid
// only until the next Predict call.
func (b *Buffered) Predict(now time.Duration) (Demand, []int64) {
	cfg := b.cache.Config()
	nwb := b.wb.Nwb()
	// counts[i-1] tallies the pages due in interval I^i until the byte
	// conversion at the end.
	counts := b.demand
	clear(counts)
	sip := b.sip[:0]

	limit := cfg.FlushLimit()
	dirty := b.cache.DirtyPageCount()
	// Strict mode below τ_flush predicts nothing; the hot filter still
	// scans, so its episodes match the relaxed predictor's.
	silent := b.Strict && dirty <= limit
	filter := !b.DisableHotFilter
	if filter {
		b.scans++
	}
	later := 0 // pages not due at the next wake-up
	for pg := range b.cache.All() {
		hot := filter && b.isHot(pg, now)
		if silent {
			continue
		}
		sip = append(sip, pg.LPN)
		if hot {
			continue // rewritten faster than it can expire: no flush soon
		}
		i := flushInterval(pg.LastUpdate, now, b.wb)
		if i > 1 {
			later++
		}
		if i > nwb {
			i = nwb // cannot happen when ages ≤ expire, kept for safety
		}
		counts[i-1]++
	}
	if filter && len(b.firstDirty) > 2*dirty {
		b.sweep()
	}
	b.sip = sip

	// The flusher's τ_flush condition is equally visible to the host: if
	// the dirty set still exceeds the threshold after the next wake-up's
	// expirations, the flusher pressure-writes the oldest remainder then.
	// Predict those pages as next-interval demand instead of at their
	// (never reached) expiry intervals, so they don't arrive unannounced.
	// The walk is oldest first and flushInterval grows with age, so the
	// oldest remainder fills the earliest intervals.
	if !b.Strict {
		for i, over := 1, int64(later-limit); i < nwb && over > 0; i++ {
			move := min(over, counts[i])
			counts[i] -= move
			counts[0] += move
			over -= move
		}
	}
	pageBytes := int64(cfg.PageSize)
	for i := range counts {
		counts[i] *= pageBytes
	}
	return counts, sip
}

// isHot records that the current scan found pg dirty and reports whether
// the page has been continuously dirty for longer than τ_expire.
func (b *Buffered) isHot(pg pagecache.DirtyPage, now time.Duration) bool {
	e, ok := b.firstDirty[pg.LPN]
	fresh := !ok || e.scan != b.scans-1
	if fresh {
		e.first = pg.LastUpdate
	}
	e.scan = b.scans
	b.firstDirty[pg.LPN] = e
	return !fresh && now-e.first > b.wb.Expire
}

// sweep deletes the episodes the current scan did not renew.
func (b *Buffered) sweep() {
	for lpn, e := range b.firstDirty {
		if e.scan != b.scans {
			delete(b.firstDirty, lpn)
		}
	}
}

// flushInterval returns the index i ≥ 1 of the future write-back interval
// I^i_wb(now) during which a page last updated at u will be flushed: the
// flusher wakes at now+p, now+2p, …, and flushes the page at the first
// wake-up ≥ u + τ_expire.
func flushInterval(u, now time.Duration, wb WriteBack) int {
	due := u + wb.Expire
	if due <= now {
		return 1
	}
	// First wake-up at or after due, counted in periods from now.
	k := (due - now + wb.Period - 1) / wb.Period
	return int(k)
}
