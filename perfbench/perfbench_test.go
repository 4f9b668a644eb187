package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"jitgc"
	"jitgc/internal/nand"
	"jitgc/internal/telemetry"
)

// The stepped loop must reproduce RunClosedLoop — and the public
// jitgc.Run — exactly on every benchmark × policy cell.
func TestSteppedLoopMatchesClosedLoop(t *testing.T) {
	const ops = 3000
	for _, c := range paperCells() {
		want, err := jitgc.Run(c.bench, c.spec, jitgc.Options{Seed: 7, Ops: ops})
		if err != nil {
			t.Fatalf("%s/%s: jitgc.Run: %v", c.bench, c.spec.Kind, err)
		}
		for _, traced := range []bool{false, true} {
			out := runPaperCell(c, 7, ops, traced)
			if len(out.problems) > 0 {
				t.Fatalf("%s/%s traced=%v: %v", c.bench, c.spec.Kind, traced, out.problems)
			}
			if !reflect.DeepEqual(out.res, want) {
				t.Errorf("%s/%s traced=%v: results differ\n got %+v\nwant %+v", c.bench, c.spec.Kind, traced, out.res, want)
			}
		}
	}
}

// The benchmark's own loops around the array, tenant and FTL-scale layers
// must match what the public entry points compute for the same inputs.
func TestLoopsMatchPublicEntryPoints(t *testing.T) {
	const ops = 16000
	t.Run("array", func(t *testing.T) {
		p, err := arrayPass(3, ops)
		if err != nil || len(p.problems) > 0 {
			t.Fatalf("arrayPass: %v %v", err, p.problems)
		}
		cfg := compressedDeviceConfig(ops)
		want, err := jitgc.RunArray("YCSB", jitgc.JIT(),
			jitgc.ArrayConfig{Devices: arrayDevices, Coordination: "coordinated"},
			jitgc.Options{Seed: 3, Ops: ops, Config: &cfg})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p.results, want) {
			t.Errorf("array results differ\n got %+v\nwant %+v", p.results, want)
		}
	})
	t.Run("tenant", func(t *testing.T) {
		p, err := tenantRun(3, ops)
		if err != nil || len(p.problems) > 0 {
			t.Fatalf("tenantRun: %v %v", err, p.problems)
		}
		cfg := compressedDeviceConfig(ops)
		want, err := jitgc.RunMultiTenant(jitgc.JIT(),
			jitgc.TenantConfig{Tenants: tenantCount, Arrival: "mmpp", Rate: tenantRate / tenantCount},
			jitgc.Options{Seed: 3, Ops: ops, Config: &cfg})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p.results, want) {
			t.Errorf("tenant results differ\n got %+v\nwant %+v", p.results, want)
		}
	})
	t.Run("ftl-scale", func(t *testing.T) {
		p, err := scalePass("256MiB", 3)
		if err != nil || len(p.problems) > 0 {
			t.Fatalf("scalePass: %v %v", err, p.problems)
		}
		preset, err := nand.PresetByName("256MiB")
		if err != nil {
			t.Fatal(err)
		}
		want, err := jitgc.RunScalePreset(preset, 3)
		if err != nil {
			t.Fatal(err)
		}
		got := p.results.(scaleOutcome)
		if got.Steady.WAF() != want.WAF || got.LivePages != want.LivePages ||
			got.GreedyWAF != want.GreedyWAF || got.MeanFieldWAF != want.MeanFieldWAF {
			t.Errorf("scale outcome %+v does not match RunScalePreset %+v", got, want)
		}
	})
}

// One seed gives bit-identical modelled metrics and layer counters on
// every workload; only host times may differ between two runs.
func TestSameSeedSameModelledMetrics(t *testing.T) {
	runs := map[string]func() (pass, error){
		"paper-grid":      func() (pass, error) { return paperGrid(5, 2000, false) },
		"ftl-scale":       func() (pass, error) { return scalePass("256MiB", 5) },
		"array-coord":     func() (pass, error) { return arrayPass(5, 16000) },
		"tenant-openloop": func() (pass, error) { return tenantRun(5, 8000) },
	}
	for name, run := range runs {
		a, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(a.problems)+len(b.problems) > 0 || a.failed+b.failed > 0 {
			t.Fatalf("%s: correctness gate failed: %v %v", name, a.problems, b.problems)
		}
		if d := diffModel(a.model, b.model); d != "" {
			t.Errorf("%s: modelled metrics differ: %s", name, d)
		}
		if len(a.model) == 0 || a.model["waf"] < 1 {
			t.Errorf("%s: implausible modelled metrics %v", name, a.model)
		}
		if !reflect.DeepEqual(a.results, b.results) {
			t.Errorf("%s: result records differ", name)
		}
		for k, v := range a.layer {
			if hostTimed(k) {
				continue
			}
			if w := b.layer[k]; math.Float64bits(v) != math.Float64bits(w) {
				t.Errorf("%s: layer counter %s differs: %v vs %v", name, k, v, w)
			}
		}
	}
}

// hostTimed reports whether a per-layer metric is a host time (or derived
// from one), which may differ between runs of one seed.
func hostTimed(name string) bool {
	for _, d := range perLayer {
		if d.Name == name {
			return d.Clock == "host"
		}
	}
	return false
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean(2, 8) = %v, want 4", g)
	}
	if g := geomean([]float64{0.5, 2, 1}); math.Abs(g-1) > 1e-12 {
		t.Errorf("geomean(0.5, 2, 1) = %v, want 1", g)
	}
	for _, xs := range [][]float64{nil, {1, 0}, {1, -2}, {math.NaN()}} {
		if g := geomean(xs); !math.IsNaN(g) {
			t.Errorf("geomean(%v) = %v, want NaN", xs, g)
		}
	}
}

func TestFailedShare(t *testing.T) {
	for _, c := range []struct {
		failed, attempted int64
		want              float64
	}{{0, 100, 0}, {25, 100, 0.25}, {3, 3, 1}, {0, 0, 0}} {
		if got := failedShare(c.failed, c.attempted); got != c.want {
			t.Errorf("failedShare(%d, %d) = %v, want %v", c.failed, c.attempted, got, c.want)
		}
	}
}

func TestMedianAndQuantile(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	xs := []float64{4, 1, 3, 2}
	if m := median(xs); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if xs[0] != 4 {
		t.Error("median reordered its input")
	}
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(1000 - i)
	}
	if q := exactQuantile(vals, 0.99); q != 990 {
		t.Errorf("p99 of 1..1000 = %d, want 990", q)
	}
	if q := exactQuantile(vals, 1); q != 1000 {
		t.Errorf("p100 of 1..1000 = %d, want 1000", q)
	}
}

// The merged p99.9 equals the quantile of one histogram fed every sample,
// and lies within one bucket of the exact order statistic.
func TestMergedP999(t *testing.T) {
	parts := []*telemetry.LogHist{telemetry.NewLogHist(), telemetry.NewLogHist(), telemetry.NewLogHist()}
	all := telemetry.NewLogHist()
	var samples []int64
	for i := int64(1); i <= 30000; i++ {
		v := i * i % 9_999_991 // spread over several decades
		parts[i%3].Add(v)
		all.Add(v)
		samples = append(samples, v)
	}
	got := mergedP999(parts)
	if want := time.Duration(all.Quantile(0.999)); got != want {
		t.Fatalf("mergedP999 = %v, single histogram says %v", got, want)
	}
	exact := exactQuantile(samples, 0.999)
	if d := int64(got) - exact; d < -all.WidthAt(exact) || d > all.WidthAt(exact) {
		t.Errorf("mergedP999 %d is more than a bucket from the exact p99.9 %d", int64(got), exact)
	}
}

// BENCHMARK.json must list exactly the catalogue's gated end-to-end
// metrics and per-layer metrics, with the same units and directions.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, catalogue %d", kind, len(got), len(want))
		}
		for i := range got {
			w := want[i]
			if got[i].Name != w.Name || got[i].Unit != w.Unit || got[i].Better != w.Better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, catalogue %s %s %s", kind, i, got[i], w.Name, w.Unit, w.Better)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd[:gatedEndToEnd])
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
}

// A measured run prints the gated metrics in a JSON last line with exactly
// the four result keys, and a failed check makes it exit non-zero.
func TestMeasuredRunReport(t *testing.T) {
	fake := func(problem string) benchWorkload {
		return benchWorkload{name: "fake", minPasses: 3, run: func(int64, bool) (pass, error) {
			p := pass{wall: time.Second, setup: time.Millisecond, measured: time.Second / 2,
				requests: 10, attempted: 10, model: map[string]float64{"waf": 1.5}}
			if problem != "" {
				p.problems, p.failed = []string{problem}, 10
			}
			return p, nil
		}}
	}
	rep, lines, err := measuredRun(fake(""), 1, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Attempted != 30 || rep.Failed != 0 {
		t.Errorf("report %+v", rep)
	}
	for _, d := range endToEnd[:gatedEndToEnd] {
		if _, ok := rep.Metrics[d.Name]; !ok {
			t.Errorf("missing %s", d.Name)
		}
	}
	if got := rep.Metrics["sim_req_per_s"].Value; got != 20 {
		t.Errorf("sim_req_per_s = %v, want 20", got)
	}
	if len(lines) == 0 {
		t.Error("no human-readable lines")
	}
	rep, _, _ = measuredRun(fake("boom"), 1, time.Millisecond)
	if rep.Correct || rep.Failed != 30 {
		t.Errorf("failed check not reported: %+v", rep)
	}
}

func TestCLIRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seed", "1"},
		{"--workload", "paper-grid", "--seed", "0"},
		{"--workload", "paper-grid", "--trace", "2"},
		{"--workload", "paper-grid", "extra"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() > 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
		if !strings.Contains(errb.String(), "perfbench") && !strings.Contains(errb.String(), "flag") {
			t.Errorf("%v: no diagnostic on stderr: %q", args, errb.String())
		}
	}
}
