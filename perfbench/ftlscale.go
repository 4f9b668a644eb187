package main

import (
	"fmt"
	"math/rand"
	"time"

	"jitgc/internal/ftl"
	"jitgc/internal/metrics"
	"jitgc/internal/nand"
)

// The ftl-scale workload drives the FTL alone at the 16 GiB preset (4M
// pages, payload integrity off) through the three phases of
// jitgc.RunScalePreset: a sequential fill to scaleFill of user capacity,
// two passes of uniform random overwrites to mix the layout, then a
// measured steady state of live/2 uniform random writes. The fill and mix
// are set-up; the steady state is the measured phase.
const (
	scalePreset = "16GiB"
	scaleFill   = 0.75
)

// scaleOutcome is the deterministic record of one ftl-scale pass.
type scaleOutcome struct {
	UserPages, LivePages, SteadyWrites int64
	Steady                             ftl.Stats
	GreedyWAF, MeanFieldWAF            float64
	MetadataBytes                      int64
}

func ftlScalePass(seed int64, _ bool) (pass, error) {
	return scalePass(scalePreset, seed)
}

// scalePass runs the three phases on the named preset. The pass is the
// same traced or not: its spans are the phases themselves.
func scalePass(presetName string, seed int64) (pass, error) {
	preset, err := nand.PresetByName(presetName)
	if err != nil {
		return pass{}, err
	}
	cfg := ftl.DefaultConfig()
	cfg.Geometry = preset.Geo
	cfg.DisableIntegrity = true

	start := time.Now()
	f, err := ftl.New(cfg)
	if err != nil {
		return pass{}, err
	}
	tNew := time.Since(start)
	user := f.UserPages()
	live := int64(scaleFill * float64(user))
	steady := live / 2
	rng := rand.New(rand.NewSource(seed))
	p := pass{attempted: live + 2*live + steady, layer: map[string]float64{}}
	fail := func(phase string, err error) (pass, error) {
		p.failed = p.attempted
		p.problems = append(p.problems, fmt.Sprintf("ftl-scale %s: %v", phase, err))
		p.wall = time.Since(start)
		return p, nil
	}

	t := time.Now()
	for lpn := int64(0); lpn < live; lpn++ {
		if _, _, err := f.Write(lpn); err != nil {
			return fail("fill", err)
		}
	}
	tFill := time.Since(t)
	t = time.Now()
	for i := int64(0); i < 2*live; i++ {
		if _, _, err := f.Write(rng.Int63n(live)); err != nil {
			return fail("mix", err)
		}
	}
	tMix := time.Since(t)

	f.ResetStats()
	since := f.Device().Stats()
	t = time.Now()
	for i := int64(0); i < steady; i++ {
		if _, _, err := f.Write(rng.Int63n(live)); err != nil {
			return fail("steady", err)
		}
	}
	tSteady := time.Since(t)
	p.wall = time.Since(start)
	p.setup = tNew + tFill + tMix
	p.measured = tSteady
	p.requests = steady

	total := preset.Geo.TotalPages()
	out := scaleOutcome{
		UserPages:     user,
		LivePages:     live,
		SteadyWrites:  steady,
		Steady:        f.Stats(),
		GreedyWAF:     metrics.GreedyWAF(total, live),
		MeanFieldWAF:  metrics.MeanFieldWAF(total, live),
		MetadataBytes: f.MetadataBytes(),
	}
	p.results = out
	waf := out.Steady.WAF()
	p.model = map[string]float64{"waf": waf}

	if err := f.CheckConsistency(); err != nil {
		p.problems = append(p.problems, fmt.Sprintf("ftl-scale: %v", err))
	}
	if out.Steady.HostPrograms != steady {
		p.problems = append(p.problems, fmt.Sprintf("ftl-scale: %d host programs in the steady phase, %d writes issued",
			out.Steady.HostPrograms, steady))
	}
	p.problems = append(p.problems, checkPrograms("ftl-scale", f, since, out.Steady.HostPrograms, out.Steady.GCMigrations, waf)...)
	if waf < out.GreedyWAF || waf > out.MeanFieldWAF {
		p.problems = append(p.problems, fmt.Sprintf("ftl-scale: steady WAF %.4f outside the analytic bracket [%.4f, %.4f]",
			waf, out.GreedyWAF, out.MeanFieldWAF))
	}
	if len(p.problems) > 0 {
		p.failed = p.attempted
	}

	l := p.layer
	l["ftl.new_s"] = tNew.Seconds()
	l["ftl.fill.ns_per_write"] = float64(tFill.Nanoseconds()) / float64(live)
	l["ftl.mix.ns_per_write"] = float64(tMix.Nanoseconds()) / float64(2*live)
	l["ftl.steady.ns_per_write"] = float64(tSteady.Nanoseconds()) / float64(steady)
	l["ftl.metadata_bytes_per_page"] = float64(out.MetadataBytes) / float64(user)
	st := out.Steady
	l["ftl.fgc_invocations"] = float64(st.FGCInvocations)
	l["ftl.bgc_collections"] = float64(st.BGCCollections)
	l["ftl.erases"] = float64(st.Erases)
	l["ftl.wasted_migration_frac"] = ratio(float64(st.WastedMigrations), float64(st.GCMigrations))
	l["ftl.sip_filtered_frac"] = ratio(float64(st.FilteredSelections), float64(st.VictimSelections))
	nandCounters(l, f, since)
	return p, nil
}
