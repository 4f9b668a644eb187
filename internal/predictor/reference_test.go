package predictor

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"jitgc/internal/pagecache"
)

// refBuffered is the original buffered predictor, kept as the oracle for
// the single in-place walk: it snapshots and sorts the dirty set, rebuilds
// a seen map to age out its first-dirty table, and keeps every later
// page's interval in a list for the pressure rule.
type refBuffered struct {
	cache      *pagecache.Cache
	wb         WriteBack
	strict     bool
	firstDirty map[int64]time.Duration
}

func (b *refBuffered) Predict(now time.Duration) (Demand, []int64) {
	var pages []pagecache.DirtyPage
	for pg := range b.cache.All() {
		pages = append(pages, pg)
	}
	// Re-sorted so that the reference does not rely on the list order.
	sort.Slice(pages, func(i, j int) bool {
		if pages[i].LastUpdate != pages[j].LastUpdate {
			return pages[i].LastUpdate < pages[j].LastUpdate
		}
		return pages[i].LPN < pages[j].LPN
	})
	seen := make(map[int64]bool, len(pages))
	hot := make(map[int64]bool)
	for _, pg := range pages {
		seen[pg.LPN] = true
		first, ok := b.firstDirty[pg.LPN]
		if !ok {
			b.firstDirty[pg.LPN] = pg.LastUpdate
			continue
		}
		if now-first > b.wb.Expire {
			hot[pg.LPN] = true
		}
	}
	for lpn := range b.firstDirty {
		if !seen[lpn] {
			delete(b.firstDirty, lpn)
		}
	}

	cfg := b.cache.Config()
	nwb := b.wb.Nwb()
	demand := make(Demand, nwb)
	sip := []int64{}
	limit := int(cfg.FlushRatio * float64(cfg.CapacityPages))
	if b.strict && len(pages) <= limit {
		return demand, sip
	}
	pageBytes := int64(cfg.PageSize)
	var later []int
	for _, pg := range pages {
		sip = append(sip, pg.LPN)
		if hot[pg.LPN] {
			continue
		}
		i := flushInterval(pg.LastUpdate, now, b.wb)
		if i <= 1 {
			demand[0] += pageBytes
			continue
		}
		later = append(later, min(i, nwb))
	}
	over := 0
	if !b.strict {
		over = len(later) - limit
	}
	for idx, i := range later {
		if idx < over {
			demand[0] += pageBytes
		} else {
			demand[i-1] += pageBytes
		}
	}
	return demand, sip
}

type predictSeed int64

func (predictSeed) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(predictSeed(r.Int63()))
}

// runPredictDifferential drives one random write/flush/drop sequence
// through a cache and compares the predictor with the reference at every
// flusher wake-up. A small LPN space with frequent rewrites makes hot
// pages; a small capacity makes direct reclaim, and skipped flushes leave
// the dirty set over τ_flush.
func runPredictDifferential(seed predictSeed) error {
	r := rand.New(rand.NewSource(int64(seed)))
	cfg := pagecache.Config{
		PageSize:      4096,
		CapacityPages: 16 + r.Intn(200),
		FlusherPeriod: time.Second,
		Expire:        time.Duration(1+r.Intn(6)) * time.Second,
		FlushRatio:    0.1 + 0.9*r.Float64(),
	}
	cache, err := pagecache.New(cfg)
	if err != nil {
		return err
	}
	strict := r.Intn(4) == 0
	got := NewBuffered(cache)
	got.Strict = strict
	want := &refBuffered{cache: cache, wb: got.WriteBack(), strict: strict, firstDirty: map[int64]time.Duration{}}
	lpnSpace := int64(8 + r.Intn(300))
	var now time.Duration
	for tick := 0; tick < 60; tick++ {
		for k := r.Intn(20); k > 0; k-- {
			at := now + time.Duration(r.Intn(1000))*time.Millisecond
			if r.Intn(8) == 0 {
				cache.Drop(r.Int63n(lpnSpace))
				continue
			}
			if _, err := cache.Write(at, r.Int63n(lpnSpace), 1+r.Intn(6)); err != nil {
				return err
			}
		}
		now += cfg.FlusherPeriod
		if r.Intn(3) > 0 { // a skipped flush leaves τ_flush overflow to predict
			cache.Flush(now)
		}
		gd, gs := got.Predict(now)
		wd, ws := want.Predict(now)
		if !slices.Equal(gd, wd) || !slices.Equal(gs, ws) {
			return fmt.Errorf("tick %d: Predict = %v %v, want %v %v", tick, gd, gs, wd, ws)
		}
	}
	return nil
}

// TestBufferedMatchesReference checks the in-place walk, the scan-stamped
// hot filter and the counted pressure rule against the original predictor.
func TestBufferedMatchesReference(t *testing.T) {
	f := func(seed predictSeed) bool {
		if err := runPredictDifferential(seed); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
