package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strings"
	"time"

	"infat/internal/exp"
	"infat/internal/rt"
	"infat/internal/workloads"
)

// reportPlan is the full-report campaign every grid and fleet workload
// evaluates: 90 perf cells and 54 memory cells at 4x scale.
func reportPlan() exp.Plan { return exp.NewReportPlan(workloads.All, 1, exp.MemScale) }

// reportDigest is the sha256 of a report as `ifp-bench -parallel 1`
// prints it (Println appends the final newline).
func reportDigest(report string) string {
	sum := sha256.Sum256([]byte(report + "\n"))
	return hex.EncodeToString(sum[:])
}

// configModes are the runtime modes of the five perf configurations, in
// plan order: baseline, subheap, wrapped, and the two no-promote twins.
var configModes = []rt.Mode{rt.Baseline, rt.Subheap, rt.Wrapped, rt.Subheap, rt.Wrapped}

// layerSuffix names a perf configuration in metric names.
func layerSuffix(config string) string { return strings.ReplaceAll(config, "-nopromote", "_np") }

// gridPass is one serial pass over the report plan.
type gridPass struct {
	total    time.Duration
	cellMs   []float64         // compute time per cell, by plan seq
	counts   map[string]uint64 // exact counters summed over perf cells
	promotes map[string]uint64 // PromoteValid per perf config
	err      error
}

// runGridPass computes every cell of plan in the seeded order perm with
// one worker and no memo, folds each into a checked assembly and renders
// the report. The digest check is left to the caller, outside the timing.
func runGridPass(plan exp.Plan, perm []int) (gridPass, string) {
	g := gridPass{cellMs: make([]float64, plan.NumCells()), counts: map[string]uint64{}, promotes: map[string]uint64{}}
	t0 := time.Now()
	a := plan.NewAssembly()
	for _, i := range perm {
		m := plan.Meta(i)
		c0 := time.Now()
		c, err := plan.ComputeCell(i)
		d := time.Since(c0)
		if err != nil {
			g.err = fmt.Errorf("cell %d (%s|%s): %w", i, m.Workload, m.Config, err)
			return g, ""
		}
		g.cellMs[i] = ms(d)
		if m.Kind == exp.CellPerf {
			g.counts["machine.instrs"] += c.Perf.Counters.Instrs
			g.counts["machine.promotes_valid"] += c.Perf.Counters.PromoteValid
			g.counts["machine.meta_fetches"] += c.Perf.Counters.MetaFetches
			g.counts["cache.l1d_misses"] += c.Perf.L1DMisses
			g.promotes[m.Config] += c.Perf.Counters.PromoteValid
		}
		if err := a.AddChecked(m, c); err != nil {
			g.err = err
			return g, ""
		}
	}
	rep, err := a.Report()
	g.total = time.Since(t0)
	g.err = err
	return g, rep
}

// cellOrder is the seeded order in which a run computes the plan's
// cells; the report is order-independent, so every seed must reproduce
// the golden digest.
func cellOrder(n int, seed uint64) []int {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)).Perm(n)
}

// runGridCold is the grid-cold workload: the full report plan
// in-process, serial, memo off, each pass from a drained runtime pool.
func runGridCold(e *env, o opts) (*outcome, error) {
	isolate()
	peak := startPeakRSS()
	out := newOutcome()
	setup, setupSamples, err := timeSetup(setupReps, setupMinBatch, func() (func(), error) {
		rt.DefaultPool.Drain()
		plan := reportPlan()
		rts := make([]*rt.Runtime, 0, len(configModes))
		for _, m := range configModes {
			rts = append(rts, rt.New(m))
		}
		return func() { runtime.KeepAlive(plan); runtime.KeepAlive(rts) }, nil
	})
	if err != nil {
		return nil, fmt.Errorf("grid-cold setup: %w", err)
	}
	plan := reportPlan()
	perm := cellOrder(plan.NumCells(), e.seed)

	pass := func() (gridPass, bool) {
		rt.DefaultPool.Drain()
		runtime.GC()
		g, rep := runGridPass(plan, perm)
		switch {
		case g.err != nil:
			out.fail("pass: %v", g.err)
			return g, false
		case reportDigest(rep) != e.cfg.GoldenReportSHA256:
			out.fail("report digest %s != golden %s", reportDigest(rep), e.cfg.GoldenReportSHA256)
			return g, false
		}
		return g, true
	}

	// The first pass in a process runs markedly slower; it is checked
	// like any other but left out of the timed ops.
	minOps, warmup := 3, time.Duration(0)
	if o.probe {
		minOps = 1
	} else {
		w0 := time.Now()
		out.attempted++
		pass()
		warmup = time.Since(w0)
	}

	var passes []gridPass
	pool0 := rt.DefaultPool.Stats()
	alloc0, pause0 := heapAllocBytes(), gcPauseNs()
	deadline := e.deadline("grid-cold")
	onTime := 0
	o.prof.begin()
	timed := measure(out, o.seconds, minOps, func() bool {
		g, ok := pass()
		if ok {
			passes = append(passes, g)
			if g.total <= deadline {
				onTime++
			}
		}
		return ok
	})
	o.prof.end()
	alloc, pause := heapAllocBytes()-alloc0, gcPauseNs()-pause0
	pool := rt.DefaultPool.Stats()
	if len(passes) == 0 {
		return out, nil
	}

	var totals, cells []float64
	for i, g := range passes {
		totals = append(totals, ms(g.total))
		cells = append(cells, g.cellMs...)
		for k, v := range g.counts {
			if v != passes[0].counts[k] {
				out.fail("pass %d: %s = %d, first pass %d: exact counters must repeat", i, k, v, passes[0].counts[k])
			}
		}
	}
	p50 := median(totals)
	n := float64(len(passes))
	cellCount := float64(plan.NumCells())
	instrs := float64(passes[0].counts["machine.instrs"])
	out.e2e["setup_s"] = setup
	out.e2e["latency_p50_ms"] = p50
	out.e2e["throughput_per_s"] = cellCount / (p50 / 1e3)
	out.e2e["sim_mips"] = instrs / (p50 / 1e3) / 1e6
	out.e2e["goodput_ratio"] = float64(onTime) / float64(timed)
	out.e2e["host_alloc_mb"] = float64(alloc) / n / 1e6
	out.e2e["host_mem_peak_mb"] = peak.finish()
	out.info["passes"] = len(passes)
	out.info["pass_ms"] = totals
	out.info["setup_samples_s"] = setupSamples
	out.info["warmup_ms"] = ms(warmup)
	out.info["cell_p99_ms"] = p99Info(cells)
	out.info["rss_method"] = peak.method

	if !o.traced {
		return out, nil
	}
	// Layer times sum each cell's median over the passes, so a host stall
	// inside one pass moves none of them.
	cellMed := make([]float64, plan.NumCells())
	for i := range cellMed {
		xs := make([]float64, len(passes))
		for k, g := range passes {
			xs[k] = g.cellMs[i]
		}
		cellMed[i] = median(xs)
	}
	// sumCells adds the median times of the cells keep selects.
	sumCells := func(keep func(exp.CellMeta) bool) float64 {
		var t float64
		for i, c := range cellMed {
			if keep(plan.Meta(i)) {
				t += c
			}
		}
		return t
	}
	perf := func(config string) func(exp.CellMeta) bool {
		return func(m exp.CellMeta) bool { return m.Kind == exp.CellPerf && (config == "" || m.Config == config) }
	}
	workloadsN := float64(len(plan.Workloads()))
	for i := 0; i < len(configModes); i++ {
		config := plan.Meta(i).Config
		out.layer["exp.cell_ms."+layerSuffix(config)] = sumCells(perf(config)) / workloadsN
	}
	memCells := plan.NumCells() - len(configModes)*len(plan.Workloads())
	out.layer["exp.mem_cell_ms"] = sumCells(func(m exp.CellMeta) bool { return m.Kind == exp.CellMem }) / float64(memCells)
	out.layer["machine.ns_per_instr"] = sumCells(perf("")) * 1e6 / instrs
	for _, ifp := range []string{"subheap", "wrapped"} {
		saved := sumCells(perf(ifp)) - sumCells(perf(ifp+"-nopromote"))
		out.layer["ifp.ns_per_promote."+ifp] = saved * 1e6 / float64(passes[0].promotes[ifp])
	}
	for k, v := range passes[0].counts {
		out.layer[k] = float64(v)
	}
	if acq := (pool.Hits - pool0.Hits) + (pool.Misses - pool0.Misses); acq > 0 {
		out.layer["rt_pool.hit_ratio"] = float64(pool.Hits-pool0.Hits) / float64(acq)
	}
	out.layer["gc.pause_ms_per_op"] = float64(pause) / 1e6 / n
	out.layer["bench.warmup_ms"] = ms(warmup)
	return out, nil
}
