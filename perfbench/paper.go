package main

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"jitgc"
	"jitgc/internal/metrics"
	"jitgc/internal/sim"
	"jitgc/internal/telemetry"
	"jitgc/internal/telemetry/binlog"
	"jitgc/internal/trace"
)

// The paper-grid workload is the Fig. 7 grid: the six paper benchmarks ×
// {L-BGC, A-BGC, ADP-GC, JIT-GC}, closed loop, default 256 MiB geometry.
// Each cell runs GenerateStream → sim.New → Begin → RunClosedLoop; cells
// fan out over paperWorkers goroutines.
const (
	paperOps     = 50000
	paperWorkers = 2
)

var paperPolicies = []jitgc.PolicySpec{jitgc.Lazy(), jitgc.Aggressive(), jitgc.ADP(), jitgc.JIT()}

type paperCell struct {
	bench string
	spec  jitgc.PolicySpec
}

func paperCells() []paperCell {
	var cells []paperCell
	for _, b := range jitgc.Benchmarks() {
		for _, p := range paperPolicies {
			cells = append(cells, paperCell{b, p})
		}
	}
	return cells
}

// cellOut is one cell's outcome.
type cellOut struct {
	cell      paperCell
	res       metrics.Results
	streamLen int64
	readPages int64
	// setup, run and total are host times: set-up (generate, new, begin),
	// the simulated phase, and the whole cell.
	setup, run, total time.Duration
	// check is the host time of the correctness gate after the cell.
	check    time.Duration
	problems []string
	layer    map[string]float64
	spans    spanTotals
	// Stepped-loop samples (traced cells only).
	dirtySum, dirtyMax, ticks int64
	sipPages, sipDecisions    int64
	reclaimBytes              int64
}

// parallel runs fn(0..n-1) on at most workers goroutines and waits.
func parallel(workers, n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// runPaperCell runs one grid cell. traced replaces RunClosedLoop by the
// stepped loop with a span around every call into the simulator.
func runPaperCell(c paperCell, seed int64, ops int, traced bool) cellOut {
	out := cellOut{cell: c, layer: map[string]float64{}}
	label := c.bench + "/" + c.spec.Kind
	rec := newSpanRecorder(16)
	root := rec.open(spCell, -1)

	sp := rec.open(spGenerate, root)
	reqs, cfg, err := jitgc.GenerateStream(c.bench, jitgc.Options{Seed: seed, Ops: ops})
	rec.close(sp)
	if err != nil {
		out.problems = append(out.problems, fmt.Sprintf("%s: generate: %v", label, err))
		return out
	}
	out.streamLen = int64(len(reqs))
	sp = rec.open(spNew, root)
	s, err := sim.New(cfg, c.spec.Factory())
	rec.close(sp)
	if err != nil {
		out.problems = append(out.problems, fmt.Sprintf("%s: sim.New: %v", label, err))
		return out
	}
	sp = rec.open(spBegin, root)
	err = s.Begin()
	rec.close(sp)
	if err != nil {
		out.problems = append(out.problems, fmt.Sprintf("%s: Begin: %v", label, err))
		return out
	}
	since := s.FTL().Device().Stats()
	if traced {
		rec.spans = append(make([]span, 0, len(reqs)+len(reqs)/4+64), rec.spans...)
		out.res, err = steppedRun(s, reqs, cfg.DrainCache, rec, root, &out)
	} else {
		sp = rec.open(spRun, root)
		out.res, err = s.RunClosedLoop(reqs)
		rec.close(sp)
	}
	rec.close(root)
	if err != nil {
		out.problems = append(out.problems, fmt.Sprintf("%s: run: %v", label, err))
		return out
	}
	out.res.Workload = c.bench
	out.spans.add(rec)
	out.total = time.Duration(out.spans.ns[spCell])
	out.setup = time.Duration(out.spans.ns[spGenerate] + out.spans.ns[spNew] + out.spans.ns[spBegin])
	out.run = out.total - out.setup

	t := time.Now()
	out.problems = checkDevice(label, s, out.res, since, out.streamLen)
	deviceCounters(out.layer, s, since)
	for _, r := range reqs {
		if r.Kind == trace.Read {
			out.readPages += int64(r.Pages)
		}
	}
	out.check = time.Since(t)
	return out
}

// steppedRun drives s through the stepped API with the closed-loop
// arrival rule of Simulator.RunClosedLoop: request i arrives its think
// time after request i-1 completes; a request due at or before the next
// write-back tick runs first; after the last request ticks continue until
// the cache drains. Every call is recorded as a span under root.
func steppedRun(s *sim.Simulator, reqs []trace.Request, drain bool, rec *spanRecorder, root int32, out *cellOut) (metrics.Results, error) {
	period := s.Cache().Config().FlusherPeriod
	nextTick := period
	var last time.Duration
	for i := 0; ; {
		if i < len(reqs) {
			r := reqs[i]
			r.Time += last
			if r.Time <= nextTick {
				sp := rec.open(stepSpan[r.Kind], root)
				done, err := s.StepRequest(r)
				rec.close(sp)
				if err != nil {
					return metrics.Results{}, fmt.Errorf("request %d: %w", i, err)
				}
				last = done
				i++
				continue
			}
		} else if !drain || s.DirtyPages() == 0 {
			break
		}
		tick := rec.open(spTick, root)
		sp := rec.open(spFlush, tick)
		err := s.TickFlush(nextTick)
		rec.close(sp)
		if err != nil {
			return metrics.Results{}, fmt.Errorf("tick %v: %w", nextTick, err)
		}
		dirty := int64(s.DirtyPages())
		sp = rec.open(spDecide, tick)
		dec := s.TickDecide(nextTick)
		rec.close(sp)
		sp = rec.open(spApply, tick)
		s.TickApply(nextTick, dec)
		rec.close(sp)
		rec.close(tick)

		out.ticks++
		out.dirtySum += dirty
		out.dirtyMax = max(out.dirtyMax, dirty)
		out.reclaimBytes += dec.ReclaimBytes
		if dec.HasSIP {
			out.sipDecisions++
			out.sipPages += int64(len(dec.SIP))
		}
		nextTick += period
	}
	sp := rec.open(spResults, root)
	res := s.Results()
	rec.close(sp)
	return res, nil
}

func paperGridPass(seed int64, traced bool) (pass, error) {
	return paperGrid(seed, paperOps, traced)
}

// paperGrid runs every grid cell at ops requests per cell.
func paperGrid(seed int64, ops int, traced bool) (pass, error) {
	cells := paperCells()
	outs := make([]cellOut, len(cells))
	start := time.Now()
	parallel(paperWorkers, len(cells), func(i int) {
		outs[i] = runPaperCell(cells[i], seed, ops, traced)
	})
	wall := time.Since(start)
	var checks time.Duration
	for _, o := range outs {
		checks += o.check
	}
	// The gate runs on the workers between cells; its share of the wall
	// time is its summed time spread over the workers.
	p := pass{wall: wall - checks/paperWorkers, layer: map[string]float64{}}

	var nandTotal, hostTotal, readPages, readHits int64
	var busy time.Duration
	var accSum float64
	var accN int
	totals := spanTotals{}
	decide := map[string]*spanTotals{}
	var ticks, dirtySum, dirtyMax, sipPages, sipDecisions, reclaim int64
	results := make([]metrics.Results, len(outs))
	for i, o := range outs {
		p.attempted += o.streamLen
		p.problems = append(p.problems, o.problems...)
		if len(o.problems) > 0 {
			p.failed += o.streamLen
		}
		p.setup += o.setup
		p.measured += o.run
		p.requests += o.res.Requests
		busy += o.total
		nandTotal += o.res.HostPrograms + o.res.GCMigrations
		hostTotal += o.res.HostPrograms
		readPages += o.readPages
		readHits += o.res.CacheReadHits
		if o.cell.spec.Kind == "JIT-GC" {
			accSum += o.res.PredictionAccuracy
			accN++
		}
		for k, v := range o.layer {
			if k == "nand.erase_spread" {
				p.layer[k] = max(p.layer[k], v)
			} else {
				p.layer[k] += v
			}
		}
		totals.merge(&o.spans)
		d := decide[o.cell.spec.Kind]
		if d == nil {
			d = &spanTotals{}
			decide[o.cell.spec.Kind] = d
		}
		d.calls[spDecide] += o.spans.calls[spDecide]
		d.ns[spDecide] += o.spans.ns[spDecide]
		ticks += o.ticks
		dirtySum += o.dirtySum
		dirtyMax = max(dirtyMax, o.dirtyMax)
		sipPages += o.sipPages
		sipDecisions += o.sipDecisions
		reclaim += o.reclaimBytes
		results[i] = o.res
	}
	p.results = results

	var iopsRatio, wafRatio []float64
	// Cells are benchmark-major in paperPolicies order: L-BGC, A-BGC,
	// ADP-GC, JIT-GC.
	for b := 0; b < len(outs); b += len(paperPolicies) {
		abgc, jit := outs[b+1].res, outs[b+3].res
		iopsRatio = append(iopsRatio, jit.NormalizedIOPS(abgc))
		wafRatio = append(wafRatio, jit.NormalizedWAF(abgc))
	}
	p.model = map[string]float64{
		"waf":          ratio(float64(nandTotal), float64(hostTotal)),
		"iops_vs_abgc": geomean(iopsRatio),
		"waf_vs_abgc":  geomean(wafRatio),
	}

	l := p.layer
	finishFTLRatios(l)
	l["grid.cells"] = float64(len(outs))
	l["grid.worker_busy_frac"] = busy.Seconds() / (paperWorkers * p.wall.Seconds())
	l["workload.generate_s"] = time.Duration(totals.ns[spGenerate]).Seconds()
	l["sim.begin_s"] = time.Duration(totals.ns[spBegin]).Seconds()
	l["predictor.accuracy"] = ratio(accSum, float64(accN))
	l["pagecache.read_hit_ratio"] = ratio(float64(readHits), float64(readPages))
	if !traced {
		return p, nil
	}

	for _, k := range []struct {
		name string
		kind spanKind
	}{{"read", spStepRead}, {"buffered", spStepBuffered}, {"direct", spStepDirect}, {"trim", spStepTrim}} {
		l["sim.step."+k.name+".ns"] = totals.mean(k.kind)
		l["sim.step."+k.name+".calls"] = float64(totals.calls[k.kind])
	}
	l["sim.step.buffered.p99_ns"] = float64(exactQuantile(totals.buffered, 0.99))
	l["sim.tick_flush.ns"] = totals.mean(spFlush)
	l["sim.ticks"] = float64(ticks)
	l["sim.tick_apply.ns"] = totals.mean(spApply)
	for kind, d := range decide {
		l["core.decide."+kind+".ns"] = d.mean(spDecide)
	}
	l["core.reclaim_bytes"] = float64(reclaim)
	l["predictor.sip_pages_mean"] = ratio(float64(sipPages), float64(sipDecisions))
	l["pagecache.dirty_pages_mean"] = ratio(float64(dirtySum), float64(ticks))
	l["pagecache.dirty_pages_max"] = float64(dirtyMax)
	l["metrics.results.ns"] = totals.mean(spResults)

	cellNs := float64(totals.ns[spCell])
	shares := map[string]float64{
		"share.setup":   float64(totals.ns[spGenerate]+totals.ns[spNew]+totals.ns[spBegin]) / cellNs,
		"share.step":    float64(totals.ns[spStepRead]+totals.ns[spStepBuffered]+totals.ns[spStepDirect]+totals.ns[spStepTrim]) / cellNs,
		"share.flush":   float64(totals.ns[spFlush]) / cellNs,
		"share.decide":  float64(totals.ns[spDecide]) / cellNs,
		"share.apply":   float64(totals.ns[spApply]) / cellNs,
		"share.results": float64(totals.ns[spResults]) / cellNs,
	}
	sum := 0.0
	for k, v := range shares {
		l[k] = v
		sum += v
	}
	l["share.sum"] = sum

	p.problems = append(p.problems, telemetryRow(seed, ops, l)...)
	return p, nil
}

// countingWriter discards what it is given and counts the bytes.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(b []byte) (int, error) {
	w.n += int64(len(b))
	return len(b), nil
}

// telemetryRow replays the YCSB JIT-GC cell with a binlog tracer whose
// output is counted and discarded, and reports events, host ns per event
// (traced minus untraced cell time, best of two each) and bytes per event.
// Tracing must not change the results.
func telemetryRow(seed int64, ops int, layer map[string]float64) []string {
	c := paperCell{"YCSB", jitgc.JIT()}
	reqs, cfg, err := jitgc.GenerateStream(c.bench, jitgc.Options{Seed: seed, Ops: ops})
	if err != nil {
		return []string{fmt.Sprintf("telemetry row: generate: %v", err)}
	}
	replay := func(tr *telemetry.Tracer) (metrics.Results, time.Duration, error) {
		tcfg := cfg
		tcfg.Tracer = tr
		start := time.Now()
		s, err := sim.New(tcfg, c.spec.Factory())
		if err != nil {
			return metrics.Results{}, 0, err
		}
		res, err := s.RunClosedLoop(reqs)
		return res, time.Since(start), err
	}
	var plainBest, tracedBest time.Duration
	var plain, traced metrics.Results
	var events, bytes int64
	for round := 0; round < 2; round++ {
		res, d, err := replay(nil)
		if err != nil {
			return []string{fmt.Sprintf("telemetry row: untraced replay: %v", err)}
		}
		plain = res
		if round == 0 || d < plainBest {
			plainBest = d
		}

		cw := &countingWriter{}
		sink := binlog.NewBinSink(cw, binlog.Options{})
		start := time.Now()
		res, _, err = replay(telemetry.New(sink))
		cerr := sink.Close()
		d = time.Since(start)
		if err == nil {
			err = cerr
		}
		if err != nil {
			return []string{fmt.Sprintf("telemetry row: traced replay: %v", err)}
		}
		traced = res
		events, bytes = sink.Count(), cw.n
		if round == 0 || d < tracedBest {
			tracedBest = d
		}
	}
	layer["telemetry.events"] = float64(events)
	layer["telemetry.ns_per_event"] = ratio(float64(tracedBest-plainBest), float64(events))
	layer["telemetry.bytes_per_event"] = ratio(float64(bytes), float64(events))
	if !reflect.DeepEqual(plain, traced) {
		return []string{fmt.Sprintf("telemetry row: tracing changed the results:\n  %+v\n  %+v", plain, traced)}
	}
	return nil
}
