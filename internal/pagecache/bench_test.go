package pagecache

import (
	"fmt"
	"testing"
	"time"
)

// benchSizes are the dirty-set sizes the cache benchmarks run at. With the
// age-ordered list the cost per page should not depend on them.
var benchSizes = []int{1 << 10, 1 << 14, 1 << 18}

// benchLPN scatters the i-th written page over a space far larger than the
// dirty set, so index lookups miss and hit the way a real workload's do.
func benchLPN(i int) int64 { return int64(i) * 7919 % (1 << 30) }

// BenchmarkCacheFlush measures one flusher wake-up in steady state: the
// dirty set holds `dirty` pages spread over the Nwb intervals of τ_expire,
// and each wake-up writes back the oldest interval's worth. Page writes
// between wake-ups run with the timer stopped; ns/page is per flushed page.
func BenchmarkCacheFlush(b *testing.B) {
	for _, dirty := range benchSizes {
		b.Run(fmt.Sprintf("dirty=%d", dirty), func(b *testing.B) {
			cfg := Config{
				PageSize: 4096, CapacityPages: 2 * dirty, FlusherPeriod: time.Second,
				Expire: 8 * time.Second, FlushRatio: 1,
			}
			c, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			perTick := dirty / cfg.Nwb()
			next := 0
			fill := func(now time.Duration) {
				for k := 0; k < perTick; k++ {
					if _, err := c.Write(now+time.Duration(k), benchLPN(next), 1); err != nil {
						b.Fatal(err)
					}
					next++
				}
			}
			// Each tick's pages are written over its first perTick ns, so a
			// wake-up expires the pages written Nwb+1 ticks before it.
			var now time.Duration
			for i := 0; i <= cfg.Nwb(); i++ {
				fill(now)
				now += cfg.FlusherPeriod
			}
			c.Flush(now) // size the scratch buffer
			fill(now)
			now += cfg.FlusherPeriod
			var flushed int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				flushed += len(c.Flush(now))
				b.StopTimer()
				fill(now)
				now += cfg.FlusherPeriod
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(flushed), "ns/page")
		})
	}
}

// BenchmarkCacheEvict measures direct reclaim: the cache is full at
// `dirty` pages and every 64-page write evicts the 64 oldest. ns/page is
// per evicted page and includes the write itself.
func BenchmarkCacheEvict(b *testing.B) {
	const batch = 64
	for _, dirty := range benchSizes {
		b.Run(fmt.Sprintf("dirty=%d", dirty), func(b *testing.B) {
			cfg := Config{
				PageSize: 4096, CapacityPages: dirty, FlusherPeriod: time.Second,
				Expire: 8 * time.Second, FlushRatio: 1,
			}
			c, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			var now time.Duration
			next := 0
			write := func() int {
				now += time.Microsecond
				rec, err := c.Write(now, benchLPN(next)*batch, batch)
				if err != nil {
					b.Fatal(err)
				}
				next++
				return len(rec)
			}
			for c.DirtyPageCount() < dirty {
				write()
			}
			write() // size the slot array and scratch buffer
			var evicted int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				evicted += write()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(evicted), "ns/page")
		})
	}
}
