package main

import (
	"fmt"
	"math"

	"jitgc/internal/ftl"
	"jitgc/internal/metrics"
	"jitgc/internal/nand"
	"jitgc/internal/sim"
)

// checkDevice is the per-device correctness gate, run after the timed
// region: the FTL's maps are consistent, the device completed the expected
// number of requests, every NAND program since Begin is either a host
// program or a GC migration, and the reported WAF recomputes from those
// counts. A negative wantRequests skips the request count (array members
// serve stripe segments, not whole requests).
func checkDevice(label string, s *sim.Simulator, res metrics.Results, since nand.Stats, wantRequests int64) []string {
	var problems []string
	if err := s.FTL().CheckConsistency(); err != nil {
		problems = append(problems, fmt.Sprintf("%s: %v", label, err))
	}
	if wantRequests >= 0 && res.Requests != wantRequests {
		problems = append(problems, fmt.Sprintf("%s: %d requests completed, stream has %d", label, res.Requests, wantRequests))
	}
	return append(problems, checkPrograms(label, s.FTL(), since, res.HostPrograms, res.GCMigrations, res.WAF)...)
}

// checkPrograms checks NAND program accounting against the FTL counters
// and the reported WAF.
func checkPrograms(label string, f *ftl.FTL, since nand.Stats, host, gc int64, waf float64) []string {
	var problems []string
	programs := f.Device().Stats().Programs - since.Programs
	if programs != host+gc {
		problems = append(problems, fmt.Sprintf("%s: %d NAND programs since Begin, host %d + GC %d = %d",
			label, programs, host, gc, host+gc))
	}
	if host > 0 {
		if want := float64(host+gc) / float64(host); math.Abs(waf-want) > 1e-12*want {
			problems = append(problems, fmt.Sprintf("%s: WAF %v does not recompute from counts (%v)", label, waf, want))
		}
	}
	return problems
}

// deviceCounters adds one device's layer counters to layer: FTL work and
// useful-work counts, NAND deltas since Begin, and page-cache counts.
func deviceCounters(layer map[string]float64, s *sim.Simulator, since nand.Stats) {
	st := s.FTL().Stats()
	layer["ftl.fgc_invocations"] += float64(st.FGCInvocations)
	layer["ftl.bgc_collections"] += float64(st.BGCCollections)
	layer["ftl.erases"] += float64(st.Erases)
	layer["ftl.gc_migrations"] += float64(st.GCMigrations)
	layer["ftl.wasted_migrations"] += float64(st.WastedMigrations)
	layer["ftl.victim_selections"] += float64(st.VictimSelections)
	layer["ftl.filtered_selections"] += float64(st.FilteredSelections)
	nandCounters(layer, s.FTL(), since)

	cs := s.Cache().Stats()
	layer["pagecache.expired_flushes"] += float64(cs.ExpiredFlushes)
	layer["pagecache.pressure_flushes"] += float64(cs.PressureFlushes)
	layer["pagecache.overwrites"] += float64(cs.Overwrites)
}

// nandCounters adds the NAND deltas since Begin and the wear spread.
func nandCounters(layer map[string]float64, f *ftl.FTL, since nand.Stats) {
	now := f.Device().Stats()
	layer["nand.reads"] += float64(now.Reads - since.Reads)
	layer["nand.programs"] += float64(now.Programs - since.Programs)
	layer["nand.erases"] += float64(now.Erases - since.Erases)
	layer["nand.busy_sim_s"] += (now.BusyTime - since.BusyTime).Seconds()
	minE, maxE, _ := f.Device().WearStats()
	layer["nand.erase_spread"] = math.Max(layer["nand.erase_spread"], float64(maxE-minE))
}

// finishFTLRatios turns the raw FTL sums deviceCounters collects into the
// reported useful-work ratios and drops the raw sums.
func finishFTLRatios(layer map[string]float64) {
	layer["ftl.wasted_migration_frac"] = ratio(layer["ftl.wasted_migrations"], layer["ftl.gc_migrations"])
	layer["ftl.sip_filtered_frac"] = ratio(layer["ftl.filtered_selections"], layer["ftl.victim_selections"])
	for _, k := range []string{"ftl.gc_migrations", "ftl.wasted_migrations", "ftl.victim_selections", "ftl.filtered_selections"} {
		delete(layer, k)
	}
}
