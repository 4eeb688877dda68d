package cpu

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"perfpred/internal/bpred"
	"perfpred/internal/mem"
	"perfpred/internal/trace"
)

// Result reports one simulated configuration.
type Result struct {
	// Instructions is the dynamic instruction count simulated.
	Instructions int
	// Cycles is the modeled execution time.
	Cycles float64
	// IPC is Instructions/Cycles.
	IPC float64

	// Component breakdown (cycles).
	BaseCycles   float64 // dispatch/issue-limited work
	BranchCycles float64 // misprediction recovery
	FetchCycles  float64 // instruction-cache misses
	MemCycles    float64 // data-cache misses (MLP-adjusted)
	TLBCycles    float64 // page walks

	// Event counts.
	BranchMisses uint64
	Branches     uint64
	MemStats     mem.AccessStats
}

// traceMetrics caches configuration-independent trace statistics.
type traceMetrics struct {
	n            int
	mix          map[trace.Class]float64
	depMean      float64
	branches     uint64
	dataAccesses uint64 // loads and stores
}

// memMetrics caches the outcome of running the trace through one memory
// hierarchy configuration.
type memMetrics struct {
	stats mem.AccessStats
	// Beyond-hit latency sums (cycles). On-chip (L2/L3-served) latency and
	// memory-trip latency are separated because the pipeline hides them
	// differently, and TLB walks are split out because they serialize.
	instCacheExtra float64 // I-side latency beyond the L1I hit time
	loadChipExtra  float64 // load latency served on-chip beyond the L1D hit
	loadMemExtra   float64 // load latency of accesses that reached memory
	storeChipExtra float64 // store latency served on-chip beyond the L1D hit
	storeMemExtra  float64 // store latency of accesses that reached memory
	tlbCycles      float64 // all page-walk cycles
}

// branchMetrics caches one predictor's behaviour on the trace.
type branchMetrics struct {
	mispredicts uint64
	branches    uint64
}

// bpredKey names one predictor pass.
type bpredKey struct {
	kind    bpred.Kind
	entries int
}

// Evaluator simulates many configurations against one trace, memoizing the
// expensive substrate passes that configurations share. The memory
// hierarchy is simulated level by level (see levels.go): one full-trace
// pass per TLB and per L1 geometry, then one L2/L3 replay of just the
// merged L1 miss streams per (L1I, L1D, L2, L3) combination. On Table 1
// that is 4 TLB and 12 L1 passes plus 144 replays for its 288
// hierarchies. Each predictor runs once over the branch stream. Every
// memo entry is keyed by every field that affects it and computed exactly
// once, however many workers ask for it concurrently. An Evaluator is
// safe for concurrent use, and nothing is simulated before the first
// Simulate call.
type Evaluator struct {
	tr *trace.Trace
	tm traceMetrics

	tlbs   memo[tlbKey, uint64]
	l1s    memo[l1Key, []uint32]
	levels memo[levelKey, *levelCounts]
	mems   memo[mem.HierarchyConfig, *memMetrics]
	preds  memo[bpredKey, *branchMetrics]
	// spare pools released L2/L3 caches by geometry (mem.CacheConfig →
	// *sync.Pool) for reuse by later replays.
	spare sync.Map
}

// NewEvaluator prepares an evaluator for the trace.
func NewEvaluator(tr *trace.Trace) (*Evaluator, error) {
	if tr == nil || tr.Len() == 0 {
		return nil, errors.New("cpu: empty trace")
	}
	if tr.Len() > indexMask+1 {
		return nil, fmt.Errorf("cpu: trace of %d instructions exceeds the evaluator's limit of %d", tr.Len(), indexMask+1)
	}
	e := &Evaluator{tr: tr}
	e.tm = traceMetrics{
		n:       tr.Len(),
		mix:     tr.Mix(),
		depMean: tr.MeanDepDistance(),
	}
	var perClass [trace.Branch + 1]uint64
	for i := range tr.Instrs {
		perClass[tr.Instrs[i].Class]++
	}
	e.tm.branches = perClass[trace.Branch]
	e.tm.dataAccesses = perClass[trace.Load] + perClass[trace.Store]
	return e, nil
}

// predPass runs (or reuses) one predictor over the trace's branch stream.
func (e *Evaluator) predPass(kind bpred.Kind, entries int) (*branchMetrics, error) {
	return e.preds.get(bpredKey{kind, entries}, func() (*branchMetrics, error) {
		p, err := bpred.New(kind, entries)
		if err != nil {
			return nil, err
		}
		b := &branchMetrics{}
		for i := range e.tr.Instrs {
			ins := &e.tr.Instrs[i]
			if ins.Class != trace.Branch {
				continue
			}
			b.branches++
			if p.Observe(ins.PC, ins.Taken) {
				b.mispredicts++
			}
		}
		return b, nil
	})
}

// Simulate evaluates one configuration.
func (e *Evaluator) Simulate(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mm, err := e.memory(cfg.Mem)
	if err != nil {
		return nil, err
	}
	bm, err := e.predPass(cfg.BPred, cfg.BPredEntries)
	if err != nil {
		return nil, err
	}
	res := combine(cfg, &e.tm, e.tr.Profile(), mm, bm)
	return res, nil
}

// Simulate runs one configuration against one trace without caching.
func Simulate(cfg Config, tr *trace.Trace) (*Result, error) {
	e, err := NewEvaluator(tr)
	if err != nil {
		return nil, err
	}
	return e.Simulate(cfg)
}

// combine merges substrate metrics with the core configuration through an
// interval-style pipeline model.
func combine(cfg Config, tm *traceMetrics, prof *trace.Profile, mm *memMetrics, bm *branchMetrics) *Result {
	n := float64(tm.n)

	// --- Dispatch-limited base time -----------------------------------
	// Window-limited ILP: the trace's mean dependence distance bounds the
	// parallelism; the RUU size determines how much of it is exposed.
	ilpInf := tm.depMean
	if math.IsInf(ilpInf, 1) {
		ilpInf = float64(cfg.Width)
	}
	windowILP := ilpInf * (1 - math.Exp(-float64(cfg.RUU)/64))
	// Functional-unit throughput limit per class.
	fuLimit := math.Inf(1)
	limit := func(units int, frac float64) {
		if frac > 0 {
			l := float64(units) / frac
			if l < fuLimit {
				fuLimit = l
			}
		}
	}
	limit(cfg.FU.IntALU, tm.mix[trace.IntALU])
	limit(cfg.FU.IntMult, tm.mix[trace.IntMult])
	limit(cfg.FU.FPALU, tm.mix[trace.FPALU])
	limit(cfg.FU.FPMult, tm.mix[trace.FPMult])
	limit(cfg.FU.MemPort, tm.mix[trace.Load]+tm.mix[trace.Store])
	// The LSQ also throttles the sustainable memory-operation rate.
	memFrac := tm.mix[trace.Load] + tm.mix[trace.Store]
	if memFrac > 0 {
		lsqLimit := (float64(cfg.LSQ) / 16) / memFrac
		if lsqLimit < fuLimit {
			fuLimit = lsqLimit
		}
	}
	effIPC := math.Min(float64(cfg.Width), math.Min(windowILP, fuLimit))
	if effIPC < 0.1 {
		effIPC = 0.1
	}
	base := n / effIPC

	// --- Branch misprediction recovery --------------------------------
	penalty := float64(cfg.FrontendDepth) + float64(cfg.Width)/2
	if cfg.IssueWrong {
		// Wrong-path issue consumes fetch and execution bandwidth while
		// the misprediction resolves.
		penalty *= 1.08
	}
	branch := float64(bm.mispredicts) * penalty

	// --- Front-end stalls on instruction misses -----------------------
	// I-side misses stall fetch with little overlap.
	fetch := mm.instCacheExtra * 0.8

	// --- Data-side stalls ----------------------------------------------
	// On-chip (L2/L3-served) latencies are short enough for the
	// out-of-order window to overlap substantially; the overlap grows
	// with the window size.
	winOverlap := 2 + float64(cfg.RUU)/128
	// Memory trips are too long to hide; they overlap only with each
	// other, limited by the hardware MLP resources (window and LSQ) and
	// the workload's inherent memory-level parallelism (pointer chasing
	// caps it near 1).
	mlpHW := 1 + math.Min(float64(cfg.RUU)/2, float64(cfg.LSQ))/128
	mlp := math.Min(mlpHW, prof.MLPCap)
	memStall := mm.loadChipExtra/winOverlap + mm.loadMemExtra/mlp
	// Stores retire through the store buffer; only a fraction stalls.
	memStall += 0.3 * (mm.storeChipExtra/winOverlap + mm.storeMemExtra/mlp)

	// --- TLB walks ------------------------------------------------------
	tlb := mm.tlbCycles * 0.9

	cycles := base + branch + fetch + memStall + tlb
	return &Result{
		Instructions: tm.n,
		Cycles:       cycles,
		IPC:          n / cycles,
		BaseCycles:   base,
		BranchCycles: branch,
		FetchCycles:  fetch,
		MemCycles:    memStall,
		TLBCycles:    tlb,
		BranchMisses: bm.mispredicts,
		Branches:     bm.branches,
		MemStats:     mm.stats,
	}
}
