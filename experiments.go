package jitgc

import (
	"fmt"
	"math"
	"strings"
	"time"

	"jitgc/internal/core"
	"jitgc/internal/ftl"
	"jitgc/internal/histogram"
	"jitgc/internal/pagecache"
	"jitgc/internal/predictor"
)

// Experiment regenerates one table or figure of the paper's evaluation.
type Experiment struct {
	// ID is the key used on the command line ("fig2a", "table2", …).
	ID string
	// Title describes the experiment.
	Title string
	// run renders the experiment, reading shared cells through r.
	run func(r *Reproduction, opt Options) ([]Table, error)
}

// Run executes the experiment on its own and returns the report tables.
func (e Experiment) Run(opt Options) ([]Table, error) {
	return new(Reproduction).Run(e, opt)
}

// Reproduction runs experiments that share the paper's evaluation grid:
// fig2a/fig2b, table1, fig7a/fig7b, table2, table3, oracle, reliability
// and the ablations all read benchmark × policy results, and a
// Reproduction simulates each distinct cell once however many experiments
// render it. Options are part of a cell's identity, so experiments run
// with different options (a different Tracer included) share nothing. The
// zero value is ready to use; a Reproduction is not safe for concurrent
// use.
type Reproduction struct {
	cells map[cell]Results
}

// Run executes e, reusing every cell an earlier Run of r already simulated.
func (r *Reproduction) Run(e Experiment, opt Options) ([]Table, error) {
	return e.run(r, opt)
}

// cell is one closed-loop Run of the evaluation grid. results keys its
// store by the cell with opt after withDefaults, so equal runs compare
// equal.
type cell struct {
	benchmark string
	spec      PolicySpec
	opt       Options
}

// results returns the Results of every cell in order, simulating only the
// cells r has not run yet; those fan out over opt.Workers.
func (r *Reproduction) results(opt Options, cells []cell) ([]Results, error) {
	if r.cells == nil {
		r.cells = make(map[cell]Results)
	}
	keys := make([]cell, len(cells))
	var missing []cell
	for i, c := range cells {
		c.opt = c.opt.withDefaults()
		keys[i] = c
		if _, done := r.cells[c]; !done {
			missing = append(missing, c)
		}
	}
	ran := make([]Results, len(missing))
	err := runGrid(opt, len(missing), func(i int) error {
		c := missing[i]
		res, err := Run(c.benchmark, c.spec, c.opt)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", c.benchmark, c.spec.Kind, err)
		}
		ran[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, c := range missing {
		r.cells[c] = ran[i]
	}
	out := make([]Results, len(keys))
	for i, c := range keys {
		out[i] = r.cells[c]
	}
	return out, nil
}

// grid runs every benchmark under every spec and returns the results
// indexed [benchmark][spec].
func (r *Reproduction) grid(opt Options, benches []string, specs ...PolicySpec) ([][]Results, error) {
	var cells []cell
	for _, b := range benches {
		for _, spec := range specs {
			cells = append(cells, cell{b, spec, opt})
		}
	}
	flat, err := r.results(opt, cells)
	if err != nil {
		return nil, err
	}
	rows := make([][]Results, len(benches))
	for i := range rows {
		rows[i] = flat[i*len(specs) : (i+1)*len(specs)]
	}
	return rows, nil
}

// alone adapts an experiment that shares no cells with the others.
func alone(run func(Options) ([]Table, error)) func(*Reproduction, Options) ([]Table, error) {
	return func(_ *Reproduction, opt Options) ([]Table, error) { return run(opt) }
}

// Experiments returns every reproducible table and figure of the paper plus
// the ablation studies DESIGN.md calls out, in presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "fig2a", Title: "Fig 2(a): normalized IOPS vs reserved capacity sweep", run: fig2a},
		{ID: "fig2b", Title: "Fig 2(b): normalized WAF vs reserved capacity sweep", run: fig2b},
		{ID: "table1", Title: "Table 1: buffered/direct write breakdown", run: table1},
		{ID: "fig4", Title: "Fig 4: buffered write demand estimation example", run: alone(fig4)},
		{ID: "fig5", Title: "Fig 5: cumulative data histogram example", run: alone(fig5)},
		{ID: "fig6", Title: "Fig 6: JIT-GC manager scheduling examples", run: alone(fig6)},
		{ID: "fig7a", Title: "Fig 7(a): normalized IOPS of L-BGC/A-BGC/ADP-GC/JIT-GC", run: fig7a},
		{ID: "fig7b", Title: "Fig 7(b): normalized WAF of L-BGC/A-BGC/ADP-GC/JIT-GC", run: fig7b},
		{ID: "table2", Title: "Table 2: prediction accuracy of JIT-GC and ADP-GC", run: table2},
		{ID: "table3", Title: "Table 3: SIP-filtered GC victim selections", run: table3},
		{ID: "oracle", Title: "Ideal-policy anchor: oracle BGC vs JIT-GC (paper §2)", run: oracleAnchor},
		{ID: "array", Title: "Array scaling: striped multi-device backend, independent vs coordinated GC", run: alone(arrayExp)},
		{ID: "arrayscale", Title: "Array width: 16-64 devices under static vs adaptive GC tokens + rebuild under fire", run: alone(arrayscaleExp)},
		{ID: "lifetime", Title: "Lifetime: host data served before wear-out per policy", run: alone(lifetime)},
		{ID: "reliability", Title: "Reliability: fault-rate sweep per policy + degraded 2-device array", run: reliability},
		{ID: "ablation-sip", Title: "Ablation: SIP victim filtering on/off", run: ablationSIP},
		{ID: "ablation-percentile", Title: "Ablation: direct-write CDH percentile", run: ablationPercentile},
		{ID: "ablation-flush", Title: "Ablation: relaxed vs strict flush-condition prediction", run: ablationFlush},
		{ID: "ablation-victim", Title: "Ablation: GC victim selector", run: ablationVictim},
		{ID: "scale", Title: "Scale: metadata footprint and WAF vs device capacity (256 MiB – 64 GiB)", run: alone(scaleExp)},
		{ID: "multitenant", Title: "Multi-tenant: open-loop QoS grid (tenants × load × policy) with p99.9 SLO verdicts", run: alone(multitenantExp)},
		{ID: "trim", Title: "TRIM: Frankie-validated WAF sweep + host profile × intensity × policy grid", run: alone(trimExp)},
	}
}

// ExperimentByID returns the experiment with the given ID.
func ExperimentByID(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("jitgc: unknown experiment %q (valid ids: %s)",
		id, strings.Join(ExperimentIDs(), ", "))
}

// ExperimentIDs returns every experiment ID in presentation order.
func ExperimentIDs() []string {
	exps := Experiments()
	ids := make([]string, len(exps))
	for i, e := range exps {
		ids[i] = e.ID
	}
	return ids
}

// fig2Factors is the reserved-capacity sweep of the paper's Fig. 2.
var fig2Factors = []float64{0.5, 0.75, 1.0, 1.25, 1.5}

// normCell formats a normalized metric, degrading to "n/a" when the
// baseline was degenerate (zero IOPS or WAF yields NaN/Inf ratios).
func normCell(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "n/a"
	}
	return fmt.Sprintf("%.3f", v)
}

// normTable renders one row per benchmark of metric(r, base) over a
// [benchmark][policy] result grid, where base is row[baseIdx].
func normTable(t Table, baseName string, rows [][]Results, baseIdx int, metric func(res, base Results) float64) Table {
	for bi, b := range Benchmarks() {
		base := rows[bi][baseIdx]
		cells := []string{b}
		degenerate := false
		for _, r := range rows[bi] {
			v := metric(r, base)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				degenerate = true
			}
			cells = append(cells, normCell(v))
		}
		if degenerate {
			t.AddNote("%s: degenerate %s (IOPS=%.0f, WAF=%.3f) — normalized cells reported as n/a",
				b, baseName, base.IOPS, base.WAF)
		}
		t.AddRow(cells...)
	}
	return t
}

// fig2Table renders the Cresv sweep, normalized over 1.5×OP (= A-BGC) like
// the paper.
func fig2Table(r *Reproduction, opt Options, title string, metric func(res, base Results) float64) ([]Table, error) {
	specs := make([]PolicySpec, len(fig2Factors))
	t := Table{Title: title, Columns: []string{"benchmark"}}
	for i, f := range fig2Factors {
		specs[i] = Fixed(f)
		t.Columns = append(t.Columns, fmt.Sprintf("%.2fOP", f))
	}
	rows, err := r.grid(opt, Benchmarks(), specs...)
	if err != nil {
		return nil, err
	}
	return []Table{normTable(t, "baseline", rows, len(specs)-1, metric)}, nil
}

func fig2a(r *Reproduction, opt Options) ([]Table, error) {
	return fig2Table(r, opt, "Fig 2(a): IOPS normalized to the 1.5×OP (A-BGC) policy",
		func(res, base Results) float64 { return res.NormalizedIOPS(base) })
}

func fig2b(r *Reproduction, opt Options) ([]Table, error) {
	return fig2Table(r, opt, "Fig 2(b): WAF normalized to the 1.5×OP (A-BGC) policy",
		func(res, base Results) float64 { return res.NormalizedWAF(base) })
}

func table1(r *Reproduction, opt Options) ([]Table, error) {
	t := Table{
		Title:   "Table 1: device-level write breakdown (paper: 88.2/81.7/85.8/72.4/46.3/0.1 % buffered)",
		Columns: []string{"benchmark", "buffered %", "direct %"},
	}
	rows, err := r.grid(opt, Benchmarks(), Lazy())
	if err != nil {
		return nil, err
	}
	for i, b := range Benchmarks() {
		lazy := rows[i][0]
		t.AddRow(b,
			fmt.Sprintf("%.1f", 100*lazy.BufferedRatio()),
			fmt.Sprintf("%.1f", 100*(1-lazy.BufferedRatio())))
	}
	return []Table{t}, nil
}

// fig7Table renders the four Fig. 7 policies over all benchmarks,
// normalized to A-BGC.
func fig7Table(r *Reproduction, opt Options, title string, metric func(res, base Results) float64) ([]Table, error) {
	rows, err := r.grid(opt, Benchmarks(), Lazy(), Aggressive(), ADP(), JIT())
	if err != nil {
		return nil, err
	}
	t := Table{Title: title, Columns: []string{"benchmark", "L-BGC", "A-BGC", "ADP-GC", "JIT-GC"}}
	return []Table{normTable(t, "A-BGC baseline", rows, 1, metric)}, nil
}

func fig7a(r *Reproduction, opt Options) ([]Table, error) {
	return fig7Table(r, opt, "Fig 7(a): IOPS normalized to A-BGC",
		func(res, base Results) float64 { return res.NormalizedIOPS(base) })
}

func fig7b(r *Reproduction, opt Options) ([]Table, error) {
	return fig7Table(r, opt, "Fig 7(b): WAF normalized to A-BGC",
		func(res, base Results) float64 { return res.NormalizedWAF(base) })
}

func table2(r *Reproduction, opt Options) ([]Table, error) {
	t := Table{
		Title:   "Table 2: prediction accuracy % (paper JIT: 98.9/93.2/97.3/89.8/86.1/72.5; ADP: 87.7/72.8/82.0/73.4/74.1/71.2)",
		Columns: []string{"benchmark", "JIT-GC", "ADP-GC"},
	}
	rows, err := r.grid(opt, Benchmarks(), JIT(), ADP())
	if err != nil {
		return nil, err
	}
	for i, b := range Benchmarks() {
		jit, adp := rows[i][0], rows[i][1]
		t.AddRow(b,
			fmt.Sprintf("%.1f", 100*jit.PredictionAccuracy),
			fmt.Sprintf("%.1f", 100*adp.PredictionAccuracy))
	}
	return []Table{t}, nil
}

func table3(r *Reproduction, opt Options) ([]Table, error) {
	t := Table{
		Title:   "Table 3: SIP-filtered GC victim selections % (paper: 12.2/20.6/17.5/8.7/4.9/1.1)",
		Columns: []string{"benchmark", "filtered %", "wasted migrations avoided"},
	}
	rows, err := r.grid(opt, Benchmarks(), JIT())
	if err != nil {
		return nil, err
	}
	for i, b := range Benchmarks() {
		jit := rows[i][0]
		t.AddRow(b,
			fmt.Sprintf("%.1f", jit.FilteredVictimPct),
			fmt.Sprintf("%d", jit.WastedMigrations))
	}
	return []Table{t}, nil
}

// fig4 reproduces the paper's worked example of buffered demand estimation:
// writes A(20 MB)@2s, B(20 MB)@4s, C(20 MB)@7s, B′@9s, D(200 MB)@17s with
// p = 5 s and τ_expire = 30 s must yield
// Dbuf(5) = (0,0,0,0,0,40), Dbuf(10) = (0,0,0,0,20,40),
// Dbuf(20) = (0,0,20,40,0,200).
func fig4(Options) ([]Table, error) {
	demands, err := Fig4Demands()
	if err != nil {
		return nil, err
	}
	t := Table{
		Title:   "Fig 4: Dbuf(t) in MB (paper: (0,0,0,0,0,40) / (0,0,0,0,20,40) / (0,0,20,40,0,200))",
		Columns: []string{"t", "D1", "D2", "D3", "D4", "D5", "D6"},
	}
	for _, at := range []time.Duration{5 * time.Second, 10 * time.Second, 20 * time.Second} {
		cells := []string{at.String()}
		for _, v := range demands[at] {
			cells = append(cells, fmt.Sprintf("%.0f", float64(v)/mb))
		}
		t.AddRow(cells...)
	}
	return []Table{t}, nil
}

const mb = 1e6

// Fig4Demands runs the paper's Fig. 4 scenario and returns Dbuf(t) for
// t = 5 s, 10 s, 20 s. Exposed so tests can assert the exact sequences.
func Fig4Demands() (map[time.Duration]predictor.Demand, error) {
	cfg := pagecache.Config{
		PageSize:      4096,
		CapacityPages: 1 << 17,
		FlusherPeriod: 5 * time.Second,
		Expire:        30 * time.Second,
		FlushRatio:    1.0, // the paper's example has no flush-pressure component
	}
	cache, err := pagecache.New(cfg)
	if err != nil {
		return nil, err
	}
	buf := predictor.NewBuffered(cache)

	// One "20 MB" unit, rounded to whole pages; D is written as exactly
	// ten units so the 1:2:10 structure of the figure is exact.
	unit := 20 * 1e6 / cfg.PageSize
	write := func(at time.Duration, lpn int64, units int) error {
		_, err := cache.Write(at, lpn, units*unit)
		return err
	}
	// Non-overlapping extents for A, B, C, D; B′ rewrites B's extent.
	const (
		lpnA = 0
		lpnB = 200000
		lpnC = 400000
		lpnD = 600000
	)
	out := make(map[time.Duration]predictor.Demand)
	steps := []struct {
		at   time.Duration
		run  func() error
		snap bool
	}{
		{2 * time.Second, func() error { return write(2*time.Second, lpnA, 1) }, false},
		{4 * time.Second, func() error { return write(4*time.Second, lpnB, 1) }, false},
		{5 * time.Second, nil, true},
		{7 * time.Second, func() error { return write(7*time.Second, lpnC, 1) }, false},
		{9 * time.Second, func() error { return write(9*time.Second, lpnB, 1) }, false}, // B′
		{10 * time.Second, nil, true},
		{17 * time.Second, func() error { return write(17*time.Second, lpnD, 10) }, false},
		{20 * time.Second, nil, true},
	}
	for _, st := range steps {
		if st.run != nil {
			if err := st.run(); err != nil {
				return nil, err
			}
		}
		if st.snap {
			cache.Flush(st.at) // the predictor runs right after the flusher
			demand, _ := buf.Predict(st.at)
			out[st.at] = demand.Clone() // Predict reuses its result buffer
		}
	}
	return out, nil
}

// fig5 reproduces the CDH example: window volumes 10, 20, 20, 20, 80 MB
// give an 80th-percentile reserve of 20 MB.
func fig5(Options) ([]Table, error) {
	h, err := histogram.New(10*mb, 16)
	if err != nil {
		return nil, err
	}
	for _, v := range []float64{10 * mb, 20 * mb, 20 * mb, 20 * mb, 80 * mb} {
		h.Add(v - 1) // "less than 20 MB" lands in the [10,20) bin, as in the figure
	}
	cdh := h.CDH()
	t := Table{
		Title:   "Fig 5: CDH of direct-write window volumes (paper: 80% of windows < 20 MB → reserve 20 MB)",
		Columns: []string{"bin upper edge (MB)", "CDH"},
	}
	for i, v := range cdh {
		if v == 0 && i > 8 {
			break
		}
		t.AddRow(fmt.Sprintf("%.0f", float64(i+1)*10), fmt.Sprintf("%.2f", v))
	}
	t.AddRow("reserve @80%", fmt.Sprintf("%.0f MB", h.ValueAtPercentile(0.80)/mb))
	return []Table{t}, nil
}

// fig6 reproduces the manager's worked scheduling decisions.
func fig6(Options) ([]Table, error) {
	t10, t20 := Fig6Decisions()
	t := Table{
		Title:   "Fig 6: D_reclaim decisions (paper: 0 MB at t=10, 12.5 MB at t=20)",
		Columns: []string{"t", "Creq (MB)", "Cfree (MB)", "D_reclaim (MB)"},
	}
	t.AddRow("10s", "90", "50", fmt.Sprintf("%.1f", float64(t10)/mb))
	t.AddRow("20s", "290", "50", fmt.Sprintf("%.1f", float64(t20)/mb))
	return []Table{t}, nil
}

// Fig6Decisions evaluates the pure scheduling rule on the paper's Fig. 6
// inputs (p = 5 s, τ_expire = 30 s, Bw = 40 MB/s, Bgc = 10 MB/s,
// Cfree = 50 MB) and returns D_reclaim at t = 10 and t = 20.
func Fig6Decisions() (at10, at20 int64) {
	const (
		cfree  = 50 * mb
		bw     = 40 * mb
		bgc    = 10 * mb
		period = 5 * time.Second
	)
	add := func(buf, dir []int64) []int64 {
		out := make([]int64, len(buf))
		for i := range out {
			out[i] = buf[i] + dir[i]
		}
		return out
	}
	dir := []int64{5 * mb, 5 * mb, 5 * mb, 5 * mb, 5 * mb, 5 * mb}
	dbuf10 := []int64{0, 0, 0, 0, 20 * mb, 40 * mb}
	dbuf20 := []int64{0, 0, 20 * mb, 40 * mb, 0, 200 * mb}
	at10 = core.Schedule(add(dbuf10, dir), cfree, period, bw, bgc, 1)
	at20 = core.Schedule(add(dbuf20, dir), cfree, period, bw, bgc, 1)
	return at10, at20
}

// oracleAnchor runs the paper's §2 ideal policy — perfect knowledge of
// future write volumes — beside JIT-GC and A-BGC: the gap between JIT-GC
// and the oracle is the cost of *prediction* error, while the gap between
// the oracle and A-BGC is the value of *timing* itself.
func oracleAnchor(r *Reproduction, opt Options) ([]Table, error) {
	t := Table{
		Title:   "Ideal-policy anchor (values normalized to A-BGC)",
		Columns: []string{"benchmark", "oracle IOPS", "JIT IOPS", "oracle WAF", "JIT WAF", "oracle FGC", "JIT FGC"},
	}
	benches := Benchmarks()
	rows, err := r.grid(opt, benches, Aggressive(), JIT())
	if err != nil {
		return nil, err
	}
	oracles := make([]Results, len(benches))
	err = runGrid(opt, len(benches), func(i int) error {
		res, err := RunOracle(benches[i], opt)
		if err != nil {
			return fmt.Errorf("oracle anchor %s: %w", benches[i], err)
		}
		oracles[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		base, jit, oracle := rows[i][0], rows[i][1], oracles[i]
		t.AddRow(b,
			normCell(oracle.NormalizedIOPS(base)),
			normCell(jit.NormalizedIOPS(base)),
			normCell(oracle.NormalizedWAF(base)),
			normCell(jit.NormalizedWAF(base)),
			fmt.Sprintf("%d", oracle.FGCInvocations),
			fmt.Sprintf("%d", jit.FGCInvocations))
	}
	return []Table{t}, nil
}

// lifetime measures the paper's title claim directly: with a finite
// per-block erase budget, how much host data does each policy serve before
// the device wears out? Lower WAF must translate into longer life.
func lifetime(opt Options) ([]Table, error) {
	const enduranceLimit = 25
	if opt.Ops < 30000 {
		opt.Ops = 30000 // lifetime replays the stream until wear-out; tiny
		// streams would hit the round cap before the erase budget
	}
	t := Table{
		Title:   fmt.Sprintf("Host data served before wear-out (erase budget %d per block), normalized to A-BGC", enduranceLimit),
		Columns: []string{"benchmark", "L-BGC", "A-BGC", "JIT-GC", "A-BGC MB"},
	}
	benches := []string{"YCSB", "Postmark", "TPC-C"}
	policies := []PolicySpec{Lazy(), Aggressive(), JIT()}
	slots := make([]LifetimeResult, len(benches)*len(policies))
	err := runGrid(opt, len(slots), func(i int) error {
		b, p := benches[i/len(policies)], policies[i%len(policies)]
		res, err := RunUntilWearOut(b, p, enduranceLimit, opt)
		if err != nil {
			return fmt.Errorf("lifetime %s/%s: %w", b, p.Kind, err)
		}
		slots[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for bi, b := range benches {
		rows := map[string]LifetimeResult{}
		for pi := range policies {
			res := slots[bi*len(policies)+pi]
			rows[res.Policy] = res
		}
		base := float64(rows["A-BGC"].HostBytesWritten)
		if base == 0 {
			t.AddNote("%s: A-BGC served zero host bytes — normalized cells reported as n/a", b)
		}
		baseCell := "1.000"
		if base == 0 {
			baseCell = "n/a"
		}
		t.AddRow(b,
			normLifetimeCell(float64(rows["L-BGC"].HostBytesWritten), base),
			baseCell,
			normLifetimeCell(float64(rows["JIT-GC"].HostBytesWritten), base),
			fmt.Sprintf("%.0f", base/1e6))
	}
	return []Table{t}, nil
}

// normLifetimeCell renders v/base with a degenerate-baseline guard.
func normLifetimeCell(v, base float64) string {
	if base == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2f", v/base)
}

// ablationSIP compares full JIT-GC against JIT-GC without SIP forwarding.
func ablationSIP(r *Reproduction, opt Options) ([]Table, error) {
	t := Table{
		Title:   "Ablation: SIP victim filtering (JIT-GC with vs without the SIP list)",
		Columns: []string{"benchmark", "WAF with SIP", "WAF without", "wasted migr. with", "wasted migr. without"},
	}
	noSIP := JIT()
	noSIP.DisableSIP = true
	rows, err := r.grid(opt, Benchmarks(), JIT(), noSIP)
	if err != nil {
		return nil, err
	}
	for i, b := range Benchmarks() {
		with, without := rows[i][0], rows[i][1]
		t.AddRow(b,
			fmt.Sprintf("%.3f", with.WAF), fmt.Sprintf("%.3f", without.WAF),
			fmt.Sprintf("%d", with.WastedMigrations), fmt.Sprintf("%d", without.WastedMigrations))
	}
	return []Table{t}, nil
}

// ablationPercentile sweeps the direct-write CDH percentile the paper fixes
// at 80%.
func ablationPercentile(r *Reproduction, opt Options) ([]Table, error) {
	t := Table{
		Title:   "Ablation: direct-write CDH percentile (paper argues 80% balances IOPS and WAF)",
		Columns: []string{"benchmark", "pct", "IOPS", "WAF", "FGC"},
	}
	benches := []string{"Tiobench", "TPC-C"} // the direct-write-heavy pair
	pcts := []float64{0.5, 0.8, 0.95}
	specs := make([]PolicySpec, len(pcts))
	for i, pct := range pcts {
		specs[i] = JIT()
		specs[i].JIT = core.JITOptions{Percentile: pct}
	}
	rows, err := r.grid(opt, benches, specs...)
	if err != nil {
		return nil, err
	}
	for bi, b := range benches {
		for pi, res := range rows[bi] {
			t.AddRow(b, fmt.Sprintf("%.0f%%", 100*pcts[pi]),
				fmt.Sprintf("%.0f", res.IOPS), fmt.Sprintf("%.3f", res.WAF),
				fmt.Sprintf("%d", res.FGCInvocations))
		}
	}
	return []Table{t}, nil
}

// ablationFlush compares the paper's relaxed τ_flush prediction against the
// strict variant it argues against (§3.2.1).
func ablationFlush(r *Reproduction, opt Options) ([]Table, error) {
	t := Table{
		Title:   "Ablation: relaxed vs strict flush-condition prediction (strict under-predicts → FGC)",
		Columns: []string{"benchmark", "relaxed FGC", "strict FGC", "relaxed acc %", "strict acc %"},
	}
	benches := []string{"YCSB", "Postmark", "Filebench"} // buffered-heavy trio
	strictSpec := JIT()
	strictSpec.JIT = core.JITOptions{StrictFlushPrediction: true}
	rows, err := r.grid(opt, benches, JIT(), strictSpec)
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		relaxed, strict := rows[i][0], rows[i][1]
		t.AddRow(b,
			fmt.Sprintf("%d", relaxed.FGCInvocations), fmt.Sprintf("%d", strict.FGCInvocations),
			fmt.Sprintf("%.1f", 100*relaxed.PredictionAccuracy), fmt.Sprintf("%.1f", 100*strict.PredictionAccuracy))
	}
	return []Table{t}, nil
}

// ablationVictim compares victim selectors under the L-BGC policy, where
// selection quality dominates. The greedy cells are the plain L-BGC runs;
// only the cost-benefit cells carry their own configuration.
func ablationVictim(r *Reproduction, opt Options) ([]Table, error) {
	t := Table{
		Title:   "Ablation: GC victim selector under L-BGC",
		Columns: []string{"benchmark", "selector", "WAF", "erases"},
	}
	cfg, _ := opt.withDefaults().simConfig()
	cfg.FTL.Selector = ftl.CostBenefit{}
	costBenefit := opt
	costBenefit.Config = &cfg
	var cells []cell
	for _, b := range []string{"YCSB", "Postmark", "TPC-C"} {
		cells = append(cells, cell{b, Lazy(), opt}, cell{b, Lazy(), costBenefit})
	}
	results, err := r.results(opt, cells)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		selector := []string{"greedy", "cost-benefit"}[i%2]
		t.AddRow(cells[i].benchmark, selector, fmt.Sprintf("%.3f", res.WAF), fmt.Sprintf("%d", res.Erases))
	}
	return []Table{t}, nil
}
