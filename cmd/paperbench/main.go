// Command paperbench regenerates the tables and figures of the JIT-GC paper
// (Hahn, Lee, Kim — DAC 2015) on the simulated SSD substrate.
//
// Usage:
//
//	paperbench [-exp id[,id...]] [-ops N] [-seed S] [-workers W] [-list]
//	           [-trace-events-dir DIR] [-pprof ADDR]
//
// With no -exp it runs every experiment in presentation order. The
// independent simulation cells of each experiment grid fan out over
// -workers goroutines (default: GOMAXPROCS); output is byte-identical for
// every worker count. Experiments that render the same benchmark × policy
// runs (fig7a and fig7b, table2 and table3, …) simulate them once per
// invocation. Exits non-zero when any table carries a warning
// (e.g. a degenerate normalization baseline).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"jitgc"
	"jitgc/internal/telemetry"
	"jitgc/internal/telemetry/binlog"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("paperbench: ")

	var (
		expIDs  = flag.String("exp", "", "comma-separated experiment ids (default: all)")
		ops     = flag.Int("ops", 0, "requests per benchmark run (default 100000)")
		seed    = flag.Int64("seed", 1, "workload generation seed")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent simulation runs per experiment grid")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		evDir   = flag.String("trace-events-dir", "", "write one event stream per experiment into this directory")
		evBin   = flag.Bool("trace-events-binary", false, "write event streams as columnar binlog (<id>.jgb) instead of JSONL")
		pprofA  = flag.String("pprof", "", "serve pprof and expvar debug endpoints on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	if *list {
		for _, e := range jitgc.Experiments() {
			fmt.Printf("%-20s %s\n", e.ID, e.Title)
		}
		return
	}

	if *workers < 1 {
		usageError("-workers must be at least 1, got %d", *workers)
	}
	if *ops < 0 {
		usageError("-ops must not be negative, got %d", *ops)
	}

	var exps []jitgc.Experiment
	if *expIDs == "" {
		exps = jitgc.Experiments()
	} else {
		for _, id := range strings.Split(*expIDs, ",") {
			e, err := jitgc.ExperimentByID(strings.TrimSpace(id))
			if err != nil {
				usageError("unknown experiment id %q", strings.TrimSpace(id))
			}
			exps = append(exps, e)
		}
	}

	if *pprofA != "" {
		addr, err := telemetry.ServeDebug(*pprofA)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "debug: pprof and expvar at http://%s/debug/pprof/\n", addr)
	}
	if *evDir != "" {
		if err := os.MkdirAll(*evDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	// One reproduction simulates each cell the experiments share once. A
	// traced experiment has its own tracer in its options, so it shares no
	// cells and its event stream stays complete.
	var repro jitgc.Reproduction
	opt := jitgc.Options{Seed: *seed, Ops: *ops, Workers: *workers}
	var warnings int
	for _, e := range exps {
		// Each experiment gets its own event stream; the grid cells of one
		// experiment run concurrently and interleave into the shared sink.
		expOpt := opt
		var sink interface {
			telemetry.Sink
			Count() int64
		}
		if *evDir != "" {
			ext := ".jsonl"
			if *evBin {
				ext = ".jgb"
			}
			f, err := os.Create(filepath.Join(*evDir, e.ID+ext))
			if err != nil {
				log.Fatal(err)
			}
			if *evBin {
				sink = binlog.NewBinSink(f, binlog.Options{})
			} else {
				sink = telemetry.NewJSONLSink(f)
			}
			expOpt.Tracer = telemetry.New(sink)
		}
		start := time.Now()
		tables, err := repro.Run(e, expOpt)
		if err != nil {
			log.Fatalf("%s: %v", e.ID, err)
		}
		if sink != nil {
			if err := sink.Close(); err != nil {
				log.Fatalf("%s: trace-events: %v", e.ID, err)
			}
			fmt.Fprintf(os.Stderr, "trace-events: %s: %d events\n", e.ID, sink.Count())
		}
		fmt.Printf("=== %s — %s (%.1fs)\n\n", e.ID, e.Title, time.Since(start).Seconds())
		for _, t := range tables {
			fmt.Fprintln(os.Stdout, t.String())
			warnings += len(t.Notes)
		}
	}
	if warnings > 0 {
		log.Printf("%d table warning(s) emitted — inspect the n/a cells above", warnings)
		os.Exit(1)
	}
}

// usageError prints a flag-validation error plus the valid experiment ids
// and exits with the conventional usage status.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "paperbench: %s\n", fmt.Sprintf(format, args...))
	fmt.Fprintf(os.Stderr, "usage: paperbench [-exp id[,id...]] [-ops N] [-seed S] [-workers W] [-list] [-trace-events-dir DIR] [-pprof ADDR]\n")
	fmt.Fprintf(os.Stderr, "valid experiment ids: %s\n", strings.Join(jitgc.ExperimentIDs(), ", "))
	os.Exit(2)
}
