package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"perfpred/internal/core"
	"perfpred/internal/cpu"
	"perfpred/internal/dataset"
	"perfpred/internal/engine"
	"perfpred/internal/mem"
	"perfpred/internal/space"
	"perfpred/internal/stat"
	"perfpred/internal/trace"
)

// exploreRun is one explore iteration's inputs and outputs.
type exploreRun struct {
	seed   int64
	tr     *trace.Trace
	cfgs   []space.MicroConfig
	cycles []float64
	full   *dataset.Dataset
	res    *core.SampledDSEResult
	active *core.ActiveDSEResult // set for active workloads

	setup         *setupRun
	sweepS, wallS float64
}

// exploreStage is what the explore stage reports to the run.
type exploreStage struct {
	setupS, wallS []float64
	// sweepRates are the design points per second of each parallel
	// sweep; their median is sim_points_per_s.
	sweepRates []float64
	// retainedMB is the largest heap an iteration left live with its
	// answer, its datasets and its trained models still held.
	retainedMB        float64
	attempted, failed int
	problems          []string
	last              *exploreRun
}

func (st *exploreStage) fail(format string, args ...any) {
	st.failed++
	st.problems = append(st.problems, fmt.Sprintf(format, args...))
}

// engineCounter is the benchmark's engine.Hook: it counts pool tasks and
// sums the time they waited for a worker.
type engineCounter struct {
	tasks  atomic.Int64
	waitNS atomic.Int64
}

func (c *engineCounter) hook() engine.Hook {
	return func(e engine.Event) {
		if e.Kind == engine.TaskStart {
			c.tasks.Add(1)
			c.waitNS.Add(int64(e.Wait))
		}
	}
}

func workers() int { return runtime.GOMAXPROCS(0) }

func (w workload) configs() []space.MicroConfig {
	cfgs := space.Enumerate()
	if w.Stride > 1 {
		var sub []space.MicroConfig
		for i := 0; i < len(cfgs); i += w.Stride {
			sub = append(sub, cfgs[i])
		}
		cfgs = sub
	}
	return cfgs
}

// setup generates the iteration's trace and prepares an evaluator over it:
// the set-up a DSE run pays before its first simulation.
func (w workload) setup(seed int64, tr *tracer, parent int64) (*setupRun, error) {
	prof, err := trace.ProfileByName(w.Bench)
	if err != nil {
		return nil, err
	}
	s := &setupRun{}
	start := time.Now()
	if err := tr.timed("dse", parent, "trace.generate", func() (err error) {
		s.tr, err = trace.Generate(prof, w.TraceLen, seed)
		return err
	}); err != nil {
		return nil, fmt.Errorf("generating trace: %w", err)
	}
	mid := time.Now()
	if err := tr.timed("dse", parent, "cpu.new_evaluator", func() (err error) {
		s.ev, err = cpu.NewEvaluator(s.tr)
		return err
	}); err != nil {
		return nil, fmt.Errorf("creating evaluator: %w", err)
	}
	s.generateS, s.evaluatorS = mid.Sub(start).Seconds(), time.Since(mid).Seconds()
	return s, nil
}

// setupRun is one set-up's products and its two timed parts.
type setupRun struct {
	tr                    *trace.Trace
	ev                    *cpu.Evaluator
	generateS, evaluatorS float64
}

// explore runs one DSE iteration: set-up, then the timed sweep and model
// pipeline up to the selected result. hook (may be nil) observes the
// engine pool of both the sweep and the training.
func (w workload) explore(ctx context.Context, seed int64, nWorkers int, hook engine.Hook, tr *tracer) (*exploreRun, error) {
	root, end := tr.open("dse", 0, "run.dse_iteration")
	defer end()
	su, err := w.setup(seed, tr, root)
	if err != nil {
		return nil, err
	}
	ev := su.ev
	run := &exploreRun{seed: seed, tr: su.tr, cfgs: w.configs(), setup: su}
	start := time.Now()
	if err := tr.timed("dse", root, "space.sweep", func() (err error) {
		run.cycles, err = space.Sweep(ctx, ev, run.cfgs, engine.Options{Workers: nWorkers, Hook: hook})
		return err
	}); err != nil {
		return nil, fmt.Errorf("sweeping: %w", err)
	}
	run.sweepS = time.Since(start).Seconds()
	if err := tr.timed("dse", root, "space.build_dataset", func() (err error) {
		run.full, err = space.BuildDataset(run.cfgs, run.cycles)
		return err
	}); err != nil {
		return nil, fmt.Errorf("building dataset: %w", err)
	}
	cfg := core.TrainConfig{Seed: seed, Workers: nWorkers, EpochScale: w.EpochScale, Hook: hook}
	if w.Active {
		err = tr.timed("dse", root, "core.run_active_dse", func() (err error) {
			run.active, err = core.RunActiveDSE(ctx, run.full, w.Frac, w.Kinds, cfg, core.ActiveOptions{Rounds: w.Rounds})
			if err == nil {
				run.res = &run.active.SampledDSEResult
			}
			return err
		})
	} else {
		err = tr.timed("dse", root, "core.run_sampled_dse", func() (err error) {
			run.res, err = core.RunSampledDSE(ctx, run.full, w.Frac, w.Kinds, cfg)
			return err
		})
	}
	if err != nil {
		return nil, fmt.Errorf("running DSE: %w", err)
	}
	run.wallS = time.Since(start).Seconds()
	return run, nil
}

// checkRun verifies an iteration's outputs: a seeded sample of the swept
// points against uncached cpu.Simulate on the same trace, bit for bit, and
// the DSE result against the Select rule it claims to have applied.
func (w workload) checkRun(run *exploreRun, samples int) error {
	r := stat.NewRand(stat.DeriveSeed(run.seed, 7))
	for k := 0; k < samples; k++ {
		i := r.Intn(len(run.cfgs))
		res, err := cpu.Simulate(run.cfgs[i].CPUConfig(), run.tr)
		if err != nil {
			return fmt.Errorf("uncached simulate of point %d: %w", i, err)
		}
		if math.Float64bits(res.Cycles) != math.Float64bits(run.cycles[i]) {
			return fmt.Errorf("point %d: sweep cycles %v != uncached %v", i, run.cycles[i], res.Cycles)
		}
	}
	res := run.res
	if len(res.Reports) != len(w.Kinds) {
		return fmt.Errorf("DSE returned %d reports for %d kinds", len(res.Reports), len(w.Kinds))
	}
	if res.SampleSize != len(res.SampleIndices) || res.SampleSize < 1 {
		return fmt.Errorf("DSE sample size %d with %d indices", res.SampleSize, len(res.SampleIndices))
	}
	best := 0
	for i, rep := range res.Reports {
		if rep.Kind != w.Kinds[i] || rep.Predictor == nil {
			return fmt.Errorf("DSE report %d is %v, want a trained %v", i, rep.Kind, w.Kinds[i])
		}
		if !(rep.TrueMAPE > 0) || math.IsInf(rep.TrueMAPE, 0) {
			return fmt.Errorf("%v true MAPE %v is not a positive number", rep.Kind, rep.TrueMAPE)
		}
		if rep.Estimate.Max < res.Reports[best].Estimate.Max {
			best = i
		}
	}
	if sel := res.Reports[best]; res.Selected != sel.Kind || res.SelectedTrueMAPE != sel.TrueMAPE {
		return fmt.Errorf("DSE selected %v (%.4f%%), Select rule gives %v (%.4f%%)",
			res.Selected, res.SelectedTrueMAPE, sel.Kind, sel.TrueMAPE)
	}
	return nil
}

// sweepAgain re-simulates an iteration's space on a fresh evaluator over
// the same trace, records its throughput, and requires the same cycles
// bit for bit.
func (st *exploreStage) sweepAgain(ctx context.Context, run *exploreRun) error {
	ev, err := cpu.NewEvaluator(run.tr)
	if err != nil {
		return err
	}
	start := time.Now()
	cycles, err := space.Sweep(ctx, ev, run.cfgs, engine.Options{Workers: workers()})
	if err != nil {
		return err
	}
	st.sweepRates = append(st.sweepRates, float64(len(run.cfgs))/time.Since(start).Seconds())
	for i, c := range cycles {
		if math.Float64bits(c) != math.Float64bits(run.cycles[i]) {
			return fmt.Errorf("point %d: %v cycles, %v in the first sweep", i, c, run.cycles[i])
		}
	}
	return nil
}

// checkSamples is how many swept points each iteration re-simulates
// uncached.
const checkSamples = 3

// warmupIters is how many explore iterations run first untimed: the
// first iteration of a process runs on a cold heap and cold caches, and
// took 10–40 % longer than the rest.
const warmupIters = 1

// runExplore runs DSE iterations, each on a seed derived from the run
// seed, for the first (1 - SweepShare) of the budget, then re-sweeps the
// last successful iteration's space for the rest, and adds set-ups until
// set-up time is a median of setupReps samples. Each phase starts another
// repetition only while the last one would still fit, and runs at least
// one; the warm-up iterations are checked but not timed.
func (w workload) runExplore(ctx context.Context, seed int64, budget time.Duration) *exploreStage {
	st := &exploreStage{}
	start := time.Now()
	iterEnd := start.Add(time.Duration((1 - w.SweepShare) * float64(budget)))
	var took time.Duration
	for i := 0; i <= warmupIters || time.Now().Add(took).Before(iterEnd); i++ {
		// Only the last iteration is kept, so an iteration runs beside
		// none of the previous one's data.
		st.last = nil
		t0 := time.Now()
		st.attempted++
		run, err := w.explore(ctx, stat.DeriveSeed(seed, i), workers(), nil, nil)
		if err == nil {
			err = w.checkRun(run, checkSamples)
		}
		took = time.Since(t0)
		if err != nil {
			st.fail("explore iteration %d: %v", i, err)
			continue
		}
		fmt.Fprintf(os.Stderr, "perfbench: explore iteration %d: set-up %.3fs  sweep %.3fs  DSE wall %.3fs  selected %v %.4f%%\n",
			i, run.setup.generateS+run.setup.evaluatorS, run.sweepS, run.wallS, run.res.Selected, run.res.SelectedTrueMAPE)
		st.retainedMB = max(st.retainedMB, retainedHeapMB())
		st.last = run
		if i < warmupIters {
			continue
		}
		st.setupS = append(st.setupS, run.setup.generateS+run.setup.evaluatorS)
		st.wallS = append(st.wallS, run.wallS)
		st.sweepRates = append(st.sweepRates, float64(len(run.cfgs))/run.sweepS)
	}
	end := start.Add(budget)
	for i := 0; st.last != nil && (i == 0 || time.Now().Add(took).Before(end)); i++ {
		t0 := time.Now()
		st.attempted++
		if err := st.sweepAgain(ctx, st.last); err != nil {
			st.fail("extra sweep %d: %v", i, err)
		}
		took = time.Since(t0)
	}
	for i := len(st.setupS); i < setupReps && st.last != nil; i++ {
		su, err := w.setup(stat.DeriveSeed(seed, 1000+i), nil, 0)
		if err != nil {
			st.fail("set-up %d: %v", i, err)
			continue
		}
		st.setupS = append(st.setupS, su.generateS+su.evaluatorS)
	}
	fmt.Fprintf(os.Stderr, "perfbench: explore stage: %d iterations, %d sweeps, %.1fs; sweep points/s quartiles %.0f %.0f %.0f\n",
		len(st.wallS), len(st.sweepRates), time.Since(start).Seconds(),
		quantile(st.sweepRates, 0.25), median(st.sweepRates), quantile(st.sweepRates, 0.75))
	return st
}

// traceExplore measures the explore stage layer by layer: an untraced
// iteration and a traced one on identical inputs (their wall-time
// difference is the tracing overhead), a serial traced sweep that times
// every Evaluator.Simulate call on a fresh evaluator, the per-kind model
// calls on the traced iteration's sample, and the determinism checks.
func (w workload) traceExplore(ctx context.Context, seed int64, tr *tracer, st *exploreStage) map[string]float64 {
	m := map[string]float64{}
	s0 := stat.DeriveSeed(seed, 0)
	st.attempted += 2
	base, err := w.explore(ctx, s0, workers(), nil, nil)
	if err != nil {
		st.fail("untraced explore: %v", err)
		return m
	}
	var ec engineCounter
	run, err := w.explore(ctx, s0, workers(), ec.hook(), tr)
	if err == nil {
		err = w.checkRun(run, checkSamples)
	}
	if err != nil {
		st.fail("traced explore: %v", err)
		return m
	}
	st.last = run
	st.setupS = append(st.setupS, base.setup.generateS+base.setup.evaluatorS, run.setup.generateS+run.setup.evaluatorS)
	st.wallS = append(st.wallS, run.wallS)
	st.sweepRates = append(st.sweepRates, float64(len(run.cfgs))/run.sweepS)
	m["core.selected_true_mape_pct"] = run.res.SelectedTrueMAPE

	m["tracing.overhead_dse_wall_s"] = run.wallS - base.wallS
	m["trace.generate_s"] = run.setup.generateS
	m["cpu.evaluator_new_s"] = run.setup.evaluatorS
	m["engine.tasks"] = float64(ec.tasks.Load())
	m["engine.queue_wait_s"] = time.Duration(ec.waitNS.Load()).Seconds()
	m["space.sweep_s"] = run.sweepS
	if w.Active {
		for _, r := range run.active.Rounds {
			m["active.train_s"] += r.TrainSeconds
			m["active.acquire_s"] += r.AcquireSeconds
		}
	}

	st.attempted++
	serialS, err := w.serialSweep(run, tr, m)
	if err != nil {
		st.fail("serial traced sweep: %v", err)
	} else {
		m["space.parallel_eff"] = serialS / (float64(workers()) * run.sweepS)
	}
	st.attempted++
	if err := w.modelLayers(ctx, run, tr, m); err != nil {
		st.fail("model layers: %v", err)
	}
	if w.Active {
		st.attempted++
		cfg := core.TrainConfig{Seed: s0, Workers: 1, EpochScale: w.EpochScale}
		serial, err := core.RunActiveDSE(ctx, run.full, w.Frac, w.Kinds, cfg, core.ActiveOptions{Rounds: w.Rounds})
		switch {
		case err != nil:
			st.fail("active DSE at 1 worker: %v", err)
		case !slices.Equal(serial.SampleIndices, run.res.SampleIndices):
			st.fail("active DSE sample indices differ between 1 and %d workers", workers())
		}
	}
	return m
}

// serialSweep simulates the traced iteration's space again, serially, on
// a fresh evaluator, timing each Evaluator.Simulate call. A call is
// attributed to the memory pass when its hierarchy is seen for the first
// time, to the predictor pass when only its (predictor, entries) pair is
// new, and otherwise to the pipeline model (combine) of a memoized
// config. The sweep order puts a new predictor only on already-seen
// hierarchies except for the very first call, which runs both passes and
// is counted as a memory pass. Its cycles must match the parallel sweep's
// bit for bit.
func (w workload) serialSweep(run *exploreRun, tr *tracer, m map[string]float64) (float64, error) {
	ev, err := cpu.NewEvaluator(run.tr)
	if err != nil {
		return 0, err
	}
	type predKey struct {
		kind    int
		entries int
	}
	seenMem := map[mem.HierarchyConfig]bool{}
	seenPred := map[predKey]bool{}
	var memNS, predNS, combineNS []float64
	var l1d, l2, dtlb, mispredicts uint64
	root, end := tr.open("serial-sweep", 0, "space.serial_sweep")
	start := time.Now()
	for i, mc := range run.cfgs {
		cfg := mc.CPUConfig()
		newMem := !seenMem[cfg.Mem]
		pk := predKey{int(cfg.BPred), cfg.BPredEntries}
		newPred := !seenPred[pk]
		seenMem[cfg.Mem], seenPred[pk] = true, true
		t0 := time.Now()
		res, err := ev.Simulate(cfg)
		t1 := time.Now()
		if err != nil {
			end()
			return 0, fmt.Errorf("point %d: %w", i, err)
		}
		ns := float64(t1.Sub(t0).Nanoseconds())
		switch {
		case newMem:
			memNS = append(memNS, ns)
			tr.record("serial-sweep", root, "mem.pass", t0, t1)
		case newPred:
			predNS = append(predNS, ns)
			tr.record("serial-sweep", root, "bpred.pass", t0, t1)
		default:
			combineNS = append(combineNS, ns)
			tr.record("serial-sweep", root, "cpu.combine", t0, t1)
		}
		if math.Float64bits(res.Cycles) != math.Float64bits(run.cycles[i]) {
			end()
			return 0, fmt.Errorf("point %d: serial cycles %v != parallel %v", i, res.Cycles, run.cycles[i])
		}
		l1d += res.MemStats.L1DMisses
		l2 += res.MemStats.L2Misses
		dtlb += res.MemStats.DTLBMisses
		mispredicts += res.BranchMisses
	}
	serialS := time.Since(start).Seconds()
	end()
	combine := mean(combineNS)
	if len(combineNS) == 0 {
		combine = 0
	}
	sumPass := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += max(x-combine, 0)
		}
		return s / 1e9
	}
	m["cpu.combine_us"] = combine / 1e3
	m["mem.pass_s"] = sumPass(memNS)
	m["mem.passes"] = float64(len(seenMem))
	m["mem.ns_per_instr"] = m["mem.pass_s"] * 1e9 / (float64(len(memNS)) * float64(run.tr.Len()))
	m["mem.l1d_misses"] = float64(l1d)
	m["mem.l2_misses"] = float64(l2)
	m["mem.dtlb_misses"] = float64(dtlb)
	m["bpred.pass_s"] = sumPass(predNS)
	m["bpred.passes"] = float64(len(seenPred))
	m["bpred.mispredicts"] = float64(mispredicts)
	return serialS, nil
}

// layerKinds are the model kinds whose core calls the traced run times.
var layerKinds = activeKinds

// modelLayers times core.Train, core.EstimateError and
// Predictor.PredictDataset for each layer kind on the traced iteration's
// labeled sample, predicting the whole space.
func (w workload) modelLayers(ctx context.Context, run *exploreRun, tr *tracer, m map[string]float64) error {
	sample, err := run.full.Subset(run.res.SampleIndices)
	if err != nil {
		return err
	}
	for _, k := range layerKinds {
		cfg := core.TrainConfig{Seed: run.seed, Workers: workers(), EpochScale: w.EpochScale}
		var p *core.Predictor
		start := time.Now()
		if err := tr.timed("core", 0, "core.train", func() (err error) {
			p, err = core.Train(ctx, k, sample, cfg)
			return err
		}); err != nil {
			return fmt.Errorf("training %v: %w", k, err)
		}
		m["core.train_s."+k.String()] = time.Since(start).Seconds()
		start = time.Now()
		if err := tr.timed("core", 0, "core.estimate_error", func() error {
			_, err := core.EstimateError(ctx, k, sample, cfg)
			return err
		}); err != nil {
			return fmt.Errorf("estimating %v: %w", k, err)
		}
		m["core.cv_s."+k.String()] = time.Since(start).Seconds()
		start = time.Now()
		var out []float64
		if err := tr.timed("core", 0, "core.predict_dataset", func() (err error) {
			out, err = p.PredictDataset(ctx, run.full)
			return err
		}); err != nil {
			return fmt.Errorf("predicting with %v: %w", k, err)
		}
		m["core.predict_ns_per_row."+k.String()] = float64(time.Since(start).Nanoseconds()) / float64(len(out))
		if len(out) != run.full.Len() {
			return errors.New("predicted row count differs from the space")
		}
	}
	return nil
}
