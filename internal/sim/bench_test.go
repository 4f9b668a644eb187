package sim

import (
	"testing"
	"time"

	"jitgc/internal/core"
	"jitgc/internal/trace"
)

// BenchmarkSimTick measures one write-back interval of a JIT-GC simulation
// in steady state: 1024 single-page buffered writes scattered over half the
// user capacity, then the boundary tick — flusher write-back through the
// FTL, the buffered predictor's scan and the policy decision.
func BenchmarkSimTick(b *testing.B) {
	const writesPerTick = 1024
	cfg := DefaultConfig()
	cfg.StreamingLatency = true
	s, err := New(cfg, func(env *Env) (core.Policy, error) {
		return core.NewJITGC(env.Cache, core.JITOptions{})
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Begin(); err != nil {
		b.Fatal(err)
	}
	span := uint64(s.FTL().UserPages() / 2)
	period := cfg.Cache.FlusherPeriod
	step := period / writesPerTick
	x := uint64(1)
	var now time.Duration
	tick := func() {
		for k := 0; k < writesPerTick; k++ {
			x = x*6364136223846793005 + 1442695040888963407
			r := trace.Request{Time: now + time.Duration(k)*step, Kind: trace.BufferedWrite,
				LPN: int64((x >> 33) % span), Pages: 1}
			if _, err := s.StepRequest(r); err != nil {
				b.Fatal(err)
			}
		}
		now += period
		if err := s.Tick(now); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 2*cfg.Cache.Nwb(); i++ {
		tick()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick()
	}
}
