// Command perfbench is the repository benchmark: it runs one workload of
// the JIT-GC simulator for a fixed host-time budget, checks the outputs for
// correctness, and prints every metric by name and unit, ending with one
// JSON line. It drives the simulator's layers through their public
// functions and times those calls from outside; nothing in the simulator
// is instrumented.
//
//	perfbench --workload paper-grid --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it repeats untraced passes of the workload until the
// budget is spent and reports end-to-end metrics as medians over passes.
// With --trace 1 it alternates untraced reference passes with traced
// passes and reports the per-layer metrics; layers the workload does not exercise
// read 0.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// pass is one complete, fixed-size execution of a workload. Every field
// but the host times is a deterministic function of the seed.
type pass struct {
	// wall is the host time of the whole pass, set-up included; setup the
	// host time before the first simulated request (summed over cells);
	// measured the host time of the simulated phase (summed over cells).
	wall, setup, measured time.Duration
	// requests counts simulated requests completed in the measured phase.
	requests int64
	// attempted counts simulated requests offered; failed those of cells
	// that errored or failed a correctness check, plus dropped or failed
	// requests the layer itself reports.
	attempted, failed int64
	// model holds the modelled-device end-to-end metrics.
	model map[string]float64
	// layer holds per-layer metrics (counters on every pass, host timings
	// on traced passes).
	layer map[string]float64
	// problems lists correctness violations.
	problems []string
	// results holds the simulator's own result records of the pass; a
	// traced pass must reproduce the untraced pass's records exactly.
	results any
}

// benchWorkload is one benchmark input set.
type benchWorkload struct {
	name string
	// run executes one pass; traced selects the instrumented loop.
	run func(seed int64, traced bool) (pass, error)
	// minPasses is the least number of untraced passes a measured run
	// makes; traceRounds the number of untraced/traced pass pairs a traced
	// run makes.
	minPasses, traceRounds int
}

var workloads = []benchWorkload{
	{name: "paper-grid", run: paperGridPass, minPasses: 3, traceRounds: 3},
	{name: "ftl-scale", run: ftlScalePass, minPasses: 2, traceRounds: 1},
	{name: "array-coord", run: arrayCoordPass, minPasses: 3, traceRounds: 2},
	{name: "tenant-openloop", run: tenantPass, minPasses: 3, traceRounds: 2},
}

func lookup(name string) (benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q (valid: %v)", name, names)
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed (> 0)")
	seconds := fs.Int("seconds", 20, "host seconds to keep repeating passes (untraced runs)")
	traced := fs.Int("trace", 0, "1 for the traced per-layer run, 0 for the untraced end-to-end run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seed <= 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: need --seed > 0, --seconds > 0, --trace 0|1 and no positional arguments")
		return 2
	}
	w, err := lookup(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}

	var rep report
	var lines []string
	if *traced == 1 {
		rep, lines, err = tracedRun(w, *seed)
	} else {
		rep, lines, err = measuredRun(w, *seed, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: encode result:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(out))
	if !rep.Correct {
		return 1
	}
	return 0
}

// measuredRun repeats untraced passes until budget has elapsed (and at
// least w.minPasses ran), then reports host-time metrics as medians over
// passes. Modelled metrics must repeat exactly across passes of one seed.
func measuredRun(w benchWorkload, seed int64, budget time.Duration) (report, []string, error) {
	var passes []pass
	var peaks []float64
	start := time.Now()
	for len(passes) < w.minPasses || time.Since(start) < budget {
		// Start every pass from a heap returned to the OS, with the
		// resident-set high-water mark reset, so each pass's peak is its own.
		debug.FreeOSMemory()
		resetPeakRSS()
		p, err := w.run(seed, false)
		if err != nil {
			return report{}, nil, err
		}
		peak, err := peakRSSMiB()
		if err != nil {
			return report{}, nil, err
		}
		passes = append(passes, p)
		peaks = append(peaks, peak)
	}

	walls := make([]float64, len(passes))
	setups := make([]float64, len(passes))
	rates := make([]float64, len(passes))
	rep := report{Correct: true, Metrics: map[string]value{}}
	var problems []string
	for i, p := range passes {
		walls[i] = p.wall.Seconds()
		setups[i] = p.setup.Seconds()
		rates[i] = ratio(float64(p.requests), p.measured.Seconds())
		rep.Attempted += p.attempted
		rep.Failed += p.failed
		problems = append(problems, p.problems...)
		if diff := diffModel(passes[0].model, p.model); diff != "" {
			problems = append(problems, fmt.Sprintf("pass %d: modelled metrics differ from pass 0 at one seed: %s", i, diff))
		} else if !reflect.DeepEqual(passes[0].results, p.results) {
			problems = append(problems, fmt.Sprintf("pass %d: results differ from pass 0 at one seed: %s", i, diffResults(passes[0].results, p.results)))
		}
	}
	all := map[string]float64{
		"wall_s":        median(walls),
		"setup_s":       median(setups),
		"sim_req_per_s": median(rates),
		"peak_rss_mib":  median(peaks),
	}
	for k, v := range passes[0].model {
		all[k] = v
	}

	lines := []string{fmt.Sprintf("# workload %s, seed %d, %d passes in %.1f s (untraced); pass wall times %.3f s",
		w.name, seed, len(passes), time.Since(start).Seconds(), walls)}
	for i, d := range endToEnd {
		v, ok := all[d.Name]
		if !ok {
			if i < gatedEndToEnd {
				return report{}, nil, fmt.Errorf("workload %s did not produce %s", w.name, d.Name)
			}
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			problems = append(problems, fmt.Sprintf("%s is %v", d.Name, v))
			v = 0
		}
		lines = append(lines, fmt.Sprintf("%-16s %14.6g %-6s (%s, %s is better)", d.Name, v, d.Unit, clockLabel[d.Clock], d.Better))
		if i < gatedEndToEnd {
			rep.Metrics[d.Name] = value{v, d.Unit}
		}
	}
	lines = append(lines, fmt.Sprintf("%-16s %14.6g %-6s (failed %d of %d attempted)",
		"failed_share", failedShare(rep.Failed, rep.Attempted), "ratio", rep.Failed, rep.Attempted))
	return finish(rep, lines, problems)
}

// tracedRun alternates untraced reference passes and traced passes,
// w.traceRounds of each, and reports every per-layer metric of the last
// traced pass plus the tracing overhead (median traced ÷ median untraced
// wall time − 1). Each traced pass must reproduce the untraced results.
func tracedRun(w benchWorkload, seed int64) (report, []string, error) {
	rep := report{Correct: true, Metrics: map[string]value{}}
	var problems []string
	var ref, tp pass
	var refWalls, tpWalls []float64
	for round := 0; round < max(1, w.traceRounds); round++ {
		for _, traced := range []bool{false, true} {
			p, err := w.run(seed, traced)
			if err != nil {
				return report{}, nil, err
			}
			runtime.GC()
			rep.Attempted += p.attempted
			rep.Failed += p.failed
			problems = append(problems, p.problems...)
			if traced {
				tp = p
				tpWalls = append(tpWalls, p.wall.Seconds())
			} else {
				ref = p
				refWalls = append(refWalls, p.wall.Seconds())
			}
		}
		if diff := diffModel(ref.model, tp.model); diff != "" {
			problems = append(problems, "traced pass changed modelled metrics: "+diff)
		}
		if !reflect.DeepEqual(ref.results, tp.results) {
			problems = append(problems, "traced pass results differ from the untraced pass: "+diffResults(ref.results, tp.results))
			rep.Failed += tp.attempted
		}
	}
	overhead := median(tpWalls)/median(refWalls) - 1
	tp.layer["trace.overhead_frac"] = overhead

	lines := []string{fmt.Sprintf("# workload %s, seed %d, traced passes %v s vs untraced %v s",
		w.name, seed, tpWalls, refWalls)}
	for _, d := range perLayer {
		v, ok := tp.layer[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			problems = append(problems, fmt.Sprintf("%s is %v", d.Name, v))
			v = 0
		}
		rep.Metrics[d.Name] = value{v, d.Unit}
		if ok {
			lines = append(lines, fmt.Sprintf("%-28s %14.6g %-6s [%s, %s]", d.Name, v, d.Unit, d.Layer, d.Clock))
		}
	}
	if s, ok := tp.layer["share.sum"]; ok {
		lines = append(lines, fmt.Sprintf("# phase shares cover %.4f of traced cell time; the rest (%.4f) is loop and span overhead, against a measured tracing overhead of %.4f",
			s, 1-s, overhead))
	}
	return finish(rep, lines, problems)
}

// clockLabel says in words what a metric's clock measures.
var clockLabel = map[string]string{"host": "host time", "sim": "modelled device", "count": "count"}

// finish folds correctness problems into the report.
func finish(rep report, lines, problems []string) (report, []string, error) {
	if len(problems) > 0 || rep.Failed > 0 {
		rep.Correct = false
	}
	for _, p := range problems {
		lines = append(lines, "# CHECK FAILED: "+p)
	}
	return rep, lines, nil
}

// diffModel returns "" when a and b hold bit-identical values, otherwise a
// description of the first difference.
func diffModel(a, b map[string]float64) string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(a) != len(b) {
		return fmt.Sprintf("%d vs %d metrics", len(a), len(b))
	}
	for _, k := range keys {
		bv, ok := b[k]
		if !ok || math.Float64bits(a[k]) != math.Float64bits(bv) {
			return fmt.Sprintf("%s %v vs %v", k, a[k], bv)
		}
	}
	return ""
}

// diffResults describes where two result records differ: the first
// differing element when both are slices, otherwise both records.
func diffResults(a, b any) string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	if va.Kind() == reflect.Slice && vb.Kind() == reflect.Slice && va.Len() == vb.Len() {
		for i := 0; i < va.Len(); i++ {
			if x, y := va.Index(i).Interface(), vb.Index(i).Interface(); !reflect.DeepEqual(x, y) {
				return fmt.Sprintf("element %d:\n  %+v\n  %+v", i, x, y)
			}
		}
	}
	return fmt.Sprintf("\n  %+v\n  %+v", a, b)
}
