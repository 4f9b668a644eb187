package main

import (
	"fmt"
	"time"

	"jitgc"
	"jitgc/internal/array"
	"jitgc/internal/ftl"
	"jitgc/internal/nand"
	"jitgc/internal/sim"
	"jitgc/internal/telemetry"
	"jitgc/internal/tenant"
	"jitgc/internal/workload"
)

// The array-coord workload stripes YCSB over arrayDevices devices with
// coordinated GC under JIT-GC, closed loop, with the member profile of the
// array experiment. The tenant-openloop workload runs tenantCount tenants
// with MMPP arrivals at the moderate aggregate rate against one JIT-GC
// device with the same profile.
const (
	arrayDevices    = 8
	arrayOps        = 400000
	tenantCount     = 100
	tenantOps       = 400000
	tenantRate      = 120.0 // aggregate req/s
	tenantSilverSLO = 100 * time.Millisecond
)

// compressedDeviceConfig is the member-device profile of the array and
// multi-tenant experiments: the default device with the write-back
// interval compressed 10× (p = 500 ms, τ_expire = 3 s), preconditioned to
// 90% of user capacity, with the streaming latency recorder past
// jitgc.StreamingLatencyThreshold requests — what jitgc.RunArray and
// jitgc.RunMultiTenant resolve for default options.
func compressedDeviceConfig(ops int) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Cache.FlusherPeriod = 500 * time.Millisecond
	cfg.Cache.Expire = 3 * time.Second
	user := ftl.UserPagesFor(cfg.FTL.Geometry.TotalPages(), cfg.FTL.OPRatio)
	cfg.PreconditionPages = min(int64(0.90*float64(user)), user)
	cfg.StreamingLatency = ops >= jitgc.StreamingLatencyThreshold
	return cfg
}

func arrayCoordPass(seed int64, _ bool) (pass, error) {
	return arrayPass(seed, arrayOps)
}

// arrayPass times array.New, stream generation and every member's Begin
// as set-up, and RunClosedLoop as the measured phase.
func arrayPass(seed int64, ops int) (pass, error) {
	start := time.Now()
	arr, err := array.New(array.Config{
		Devices: arrayDevices,
		Mode:    array.Coordinated,
		Device:  compressedDeviceConfig(ops),
	}, jitgc.JIT().Factory())
	if err != nil {
		return pass{}, err
	}
	tNew := time.Since(start)
	gen, err := workload.ByName("YCSB")
	if err != nil {
		return pass{}, err
	}
	t := time.Now()
	reqs, err := gen.Generate(workload.Params{Seed: seed, Ops: ops, WorkingSetPages: arr.UserPages() / 2})
	if err != nil {
		return pass{}, err
	}
	tGen := time.Since(t)
	p := pass{attempted: int64(len(reqs)), layer: map[string]float64{}}

	t = time.Now()
	since := make([]nand.Stats, arrayDevices)
	for i := range since {
		if err := arr.Device(i).Begin(); err != nil {
			return pass{}, fmt.Errorf("array device %d Begin: %w", i, err)
		}
		since[i] = arr.Device(i).FTL().Device().Stats()
	}
	tBegin := time.Since(t)
	t = time.Now()
	res, err := arr.RunClosedLoop(reqs)
	tRun := time.Since(t)
	p.wall = time.Since(start)
	p.setup = tNew + tGen + tBegin
	p.measured = tRun
	if err != nil {
		p.failed = p.attempted
		p.problems = append(p.problems, fmt.Sprintf("array-coord: run: %v", err))
		return p, nil
	}
	res.Array.Workload = "YCSB"
	p.results = res
	p.requests = res.Array.Requests
	p.failed = res.FailedRequests

	a := res.Array
	if a.Requests+res.FailedRequests != p.attempted {
		p.problems = append(p.problems, fmt.Sprintf("array-coord: %d served + %d failed requests, stream has %d",
			a.Requests, res.FailedRequests, p.attempted))
	}
	var nandPrograms int64
	for i := range since {
		s := arr.Device(i)
		p.problems = append(p.problems, checkDevice(fmt.Sprintf("array-coord device %d", i), s, res.PerDevice[i], since[i], -1)...)
		nandPrograms += s.FTL().Device().Stats().Programs - since[i].Programs
		deviceCounters(p.layer, s, since[i])
	}
	if nandPrograms != a.HostPrograms+a.GCMigrations {
		p.problems = append(p.problems, fmt.Sprintf("array-coord: %d NAND programs, host %d + GC %d",
			nandPrograms, a.HostPrograms, a.GCMigrations))
	}
	waf := ratio(float64(nandPrograms), float64(a.HostPrograms))
	if len(p.problems) > 0 {
		p.failed = p.attempted
	}
	p.model = map[string]float64{
		"waf":         waf,
		"sim_iops":    a.IOPS,
		"sim_p999_ms": float64(res.P999Latency) / float64(time.Millisecond),
	}

	l := p.layer
	finishFTLRatios(l)
	l["workload.generate_s"] = tGen.Seconds()
	l["sim.begin_s"] = tBegin.Seconds()
	l["array.new_s"] = tNew.Seconds()
	l["array.begin_s"] = tBegin.Seconds()
	l["array.run.ns_per_req"] = ratio(float64(tRun.Nanoseconds()), float64(p.attempted))
	l["array.gc_granted"] = float64(res.GCGranted)
	l["array.gc_denied"] = float64(res.GCDenied)
	l["array.gc_boosted"] = float64(res.GCBoosted)
	l["array.gc_bypassed"] = float64(res.GCBypassed)
	l["array.waf_spread"] = res.WAFSpread()
	l["array.resolved_cap"] = float64(res.ResolvedCap)
	return p, nil
}

// tenantClasses is the gold/silver/bronze ladder of the multi-tenant
// experiment around the silver p99.9 target.
func tenantClasses(silver time.Duration) []tenant.Class {
	return []tenant.Class{
		{Name: "gold", Weight: 4, SLO: silver / 4},
		{Name: "silver", Weight: 2, SLO: silver},
		{Name: "bronze", Weight: 1, SLO: 5 * silver},
	}
}

func tenantPass(seed int64, _ bool) (pass, error) {
	return tenantRun(seed, tenantOps)
}

// tenantRun times tenant.New (which generates every tenant's stream) and
// the device's Begin as set-up, and Engine.Run as the measured phase.
func tenantRun(seed int64, ops int) (pass, error) {
	cfg := compressedDeviceConfig(ops)
	user := ftl.UserPagesFor(cfg.FTL.Geometry.TotalPages(), cfg.FTL.OPRatio)
	start := time.Now()
	eng, err := tenant.New(tenant.Config{
		Tenants:         tenantCount,
		OpsPerTenant:    max(1, ops/tenantCount),
		Arrival:         tenant.MMPP,
		Rate:            tenantRate / tenantCount,
		Classes:         tenantClasses(tenantSilverSLO),
		Seed:            seed,
		WorkingSetPages: user / 2,
		Device:          cfg,
	}, jitgc.JIT().Factory())
	if err != nil {
		return pass{}, err
	}
	tNew := time.Since(start)
	t := time.Now()
	if err := eng.Sim().Begin(); err != nil {
		return pass{}, fmt.Errorf("tenant Begin: %w", err)
	}
	since := eng.Sim().FTL().Device().Stats()
	tBegin := time.Since(t)
	t = time.Now()
	res, err := eng.Run()
	tRun := time.Since(t)
	p := pass{
		wall:      time.Since(start),
		setup:     tNew + tBegin,
		measured:  tRun,
		attempted: int64(tenantCount * max(1, ops/tenantCount)),
		layer:     map[string]float64{},
	}
	if err != nil {
		p.failed = p.attempted
		p.problems = append(p.problems, fmt.Sprintf("tenant-openloop: run: %v", err))
		return p, nil
	}
	res.Device.Workload = "multitenant"
	p.results = res
	p.requests = res.Completed
	p.failed = res.Dropped

	if res.Arrivals != p.attempted {
		p.problems = append(p.problems, fmt.Sprintf("tenant-openloop: %d arrivals, %d requests generated", res.Arrivals, p.attempted))
	}
	if res.Arrivals != res.Admitted+res.Dropped || res.Admitted != res.Completed {
		p.problems = append(p.problems, fmt.Sprintf("tenant-openloop: flow not conserved: arrivals %d, admitted %d, dropped %d, completed %d",
			res.Arrivals, res.Admitted, res.Dropped, res.Completed))
	}
	p.problems = append(p.problems, checkDevice("tenant-openloop", eng.Sim(), res.Device, since, res.Completed)...)
	hists := make([]*telemetry.LogHist, 0, len(res.PerClass))
	for _, c := range res.PerClass {
		hists = append(hists, c.Hist)
	}
	p999 := mergedP999(hists)
	if want := res.Hist.Quantile(0.999); int64(p999) != want {
		p.problems = append(p.problems, fmt.Sprintf("tenant-openloop: per-class merged p99.9 %v, all-tenant histogram %v", p999, time.Duration(want)))
	}
	if len(p.problems) > 0 {
		p.failed = p.attempted
	}
	p.model = map[string]float64{
		"waf":          res.Device.WAF,
		"sim_p999_ms":  float64(p999) / float64(time.Millisecond),
		"slo_met_frac": ratio(float64(res.SLOMet), float64(res.SLOTenants)),
	}

	l := p.layer
	deviceCounters(l, eng.Sim(), since)
	finishFTLRatios(l)
	l["sim.begin_s"] = tBegin.Seconds()
	l["tenant.new_s"] = tNew.Seconds()
	l["tenant.begin_s"] = tBegin.Seconds()
	l["tenant.run.ns_per_req"] = ratio(float64(tRun.Nanoseconds()), float64(res.Completed))
	l["tenant.arrivals"] = float64(res.Arrivals)
	l["tenant.admitted"] = float64(res.Admitted)
	l["tenant.dropped"] = float64(res.Dropped)
	l["tenant.peak_queue_depth"] = float64(res.PeakQueueDepth)
	l["tenant.violations"] = float64(res.Violations)
	return p, nil
}
