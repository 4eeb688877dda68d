package cpu

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"perfpred/internal/bpred"
	"perfpred/internal/engine"
	"perfpred/internal/mem"
	"perfpred/internal/trace"
)

// table1Configs lists the 4608 points of the paper's Table 1 space the way
// space.Enumerate does (that package imports this one, so its tests cannot
// be used here): 6 L1D × 6 L1I × 2 L2 × 2 L3 hierarchies, each under 4
// predictors, 2 core widths, 2 window scales (which also set the TLBs) and
// wrong-path issue off/on.
func table1Configs() []Config {
	type l1 struct{ size, line int }
	var l1s []l1
	for _, size := range []int{16, 32, 64} {
		for _, line := range []int{32, 64} {
			l1s = append(l1s, l1{size, line})
		}
	}
	fus := []FUConfig{
		{IntALU: 4, IntMult: 2, MemPort: 2, FPALU: 4, FPMult: 2},
		{IntALU: 8, IntMult: 4, MemPort: 4, FPALU: 8, FPMult: 4},
	}
	type window struct{ ruu, lsq, itlb, dtlb int }
	windows := []window{{128, 64, 256, 512}, {256, 128, 1024, 2048}}
	var out []Config
	for _, d := range l1s {
		for _, i := range l1s {
			for _, l2 := range [][2]int{{256, 4}, {1024, 8}} {
				for _, hasL3 := range []bool{false, true} {
					for _, p := range bpred.Kinds() {
						for ci, fu := range fus {
							for _, w := range windows {
								for _, iw := range []bool{false, true} {
									c := Config{
										Mem: mem.HierarchyConfig{
											L1I:  mem.CacheConfig{SizeKB: i.size, LineBytes: i.line, Assoc: 4},
											L1D:  mem.CacheConfig{SizeKB: d.size, LineBytes: d.line, Assoc: 4},
											L2:   mem.CacheConfig{SizeKB: l2[0], LineBytes: 128, Assoc: l2[1]},
											ITLB: mem.TLBConfig{CoverageKB: w.itlb},
											DTLB: mem.TLBConfig{CoverageKB: w.dtlb},
										},
										BPred: p, Width: 4 << ci, FU: fu,
										IssueWrong: iw, RUU: w.ruu, LSQ: w.lsq,
									}
									if hasL3 {
										c.Mem.L3 = mem.CacheConfig{SizeKB: 8192, LineBytes: 256, Assoc: 8}
									}
									DefaultLatencies(&c)
									out = append(out, c)
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

// table1Hierarchies lists the 288 distinct memory hierarchies of Table 1.
func table1Hierarchies() []mem.HierarchyConfig {
	seen := map[mem.HierarchyConfig]bool{}
	var out []mem.HierarchyConfig
	for _, c := range table1Configs() {
		if !seen[c.Mem] {
			seen[c.Mem] = true
			out = append(out, c.Mem)
		}
	}
	return out
}

// referenceMemory runs the trace through a fresh mem.Hierarchy access by
// access and accumulates memMetrics the way the evaluator did before the
// level decomposition: the oracle for the level passes.
func referenceMemory(t *testing.T, cfg mem.HierarchyConfig, tr *trace.Trace) *memMetrics {
	t.Helper()
	h, err := mem.NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := &memMetrics{}
	l1iHit, l1dHit := cfg.L1I.LatencyCycles, cfg.L1D.LatencyCycles
	for i := range tr.Instrs {
		ins := &tr.Instrs[i]
		tlb, cache, _ := h.AccessInstParts(ins.PC)
		m.tlbCycles += float64(tlb)
		m.instCacheExtra += float64(cache - l1iHit)
		if !isData(ins.Class) {
			continue
		}
		tlb, cache, toMem := h.AccessDataParts(ins.Addr)
		m.tlbCycles += float64(tlb)
		extra := float64(cache - l1dHit)
		switch {
		case ins.Class == trace.Load && toMem:
			m.loadMemExtra += extra
		case ins.Class == trace.Load:
			m.loadChipExtra += extra
		case toMem:
			m.storeMemExtra += extra
		default:
			m.storeChipExtra += extra
		}
	}
	m.stats = h.Stats()
	return m
}

// TestLevelPassesMatchHierarchy compares the level-decomposed memory
// metrics with a per-access mem.Hierarchy run on every trace profile: a
// seeded subset of the Table 1 hierarchies plus small-L2/L3 geometries
// that force evictions below the L1s, each with the prefetcher off and
// on, nonzero memory occupancy and non-default latencies.
func TestLevelPassesMatchHierarchy(t *testing.T) {
	table1 := table1Hierarchies()
	if len(table1) != 288 {
		t.Fatalf("Table 1 has %d hierarchies, want 288", len(table1))
	}
	small := table1[0]
	small.L2 = mem.CacheConfig{SizeKB: 8, LineBytes: 64, Assoc: 2, LatencyCycles: 9}
	small.L3 = mem.CacheConfig{SizeKB: 32, LineBytes: 128, Assoc: 4, LatencyCycles: 31}
	noL3 := small
	noL3.L3 = mem.CacheConfig{}
	direct := small
	direct.L1D = mem.CacheConfig{SizeKB: 1, LineBytes: 32, Assoc: 1, LatencyCycles: 2}
	direct.DTLB = mem.TLBConfig{CoverageKB: 64, Assoc: 1, MissPenaltyCycles: 45}

	r := rand.New(rand.NewSource(5))
	for _, p := range trace.Profiles() {
		tr, err := trace.Generate(p, 10000, 1)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEvaluator(tr)
		if err != nil {
			t.Fatal(err)
		}
		cfgs := []mem.HierarchyConfig{small, noL3, direct}
		for _, i := range r.Perm(len(table1))[:24] {
			cfgs = append(cfgs, table1[i])
		}
		for ci, cfg := range cfgs {
			for _, pf := range []bool{false, true} {
				cfg.NextLinePrefetch = pf
				cfg.MemLatencyBusy = 7 * ci
				got, err := e.memory(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if want := referenceMemory(t, cfg, tr); *got != *want {
					t.Fatalf("%s, hierarchy %d, prefetch %v:\nlevels    %+v\nreference %+v", p.Name, ci, pf, *got, *want)
				}
			}
		}
	}
}

// TestEvaluatorPassesRunOnce sweeps the whole Table 1 space at 8 workers
// and checks that every distinct TLB, L1, L2/L3, hierarchy and predictor
// pass ran exactly once, and that the cycles equal a 1-worker sweep's bit
// for bit.
func TestEvaluatorPassesRunOnce(t *testing.T) {
	tr := genTrace(t, "gcc", 3000)
	cfgs := table1Configs()
	sweep := func(workers int) (*Evaluator, []float64) {
		e, err := NewEvaluator(tr)
		if err != nil {
			t.Fatal(err)
		}
		cycles := make([]float64, len(cfgs))
		err = engine.Map(context.Background(), engine.Options{Workers: workers}, len(cfgs), 16, "sweep",
			func(_ context.Context, lo, hi int) error {
				for i := lo; i < hi; i++ {
					res, err := e.Simulate(cfgs[i])
					if err != nil {
						return err
					}
					cycles[i] = res.Cycles
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return e, cycles
	}
	e8, c8 := sweep(8)
	_, c1 := sweep(1)
	for i := range c1 {
		if math.Float64bits(c1[i]) != math.Float64bits(c8[i]) {
			t.Fatalf("config %d: 8 workers %v, 1 worker %v", i, c8[i], c1[i])
		}
	}
	for _, m := range []struct {
		name       string
		runs       int64
		keys, want int
	}{
		{"TLB", e8.tlbs.runs.Load(), memoKeys(&e8.tlbs), 4},
		{"L1", e8.l1s.runs.Load(), memoKeys(&e8.l1s), 12},
		{"L2/L3", e8.levels.runs.Load(), memoKeys(&e8.levels), 144},
		{"hierarchy", e8.mems.runs.Load(), memoKeys(&e8.mems), 288},
		{"predictor", e8.preds.runs.Load(), memoKeys(&e8.preds), 4},
	} {
		if m.keys != m.want || m.runs != int64(m.want) {
			t.Errorf("%s passes: %d runs over %d keys, want %d of each", m.name, m.runs, m.keys, m.want)
		}
	}
}

// memoKeys returns the number of distinct keys a memo was asked for.
func memoKeys[K comparable, V any](m *memo[K, V]) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}

// TestMemoErrorReachesEveryWaiter blocks one computation while other
// callers of the same key queue behind it, then fails it: every caller
// must see the error, and the computation must have run once.
func TestMemoErrorReachesEveryWaiter(t *testing.T) {
	var m memo[int, int]
	errBad := errors.New("bad geometry")
	started, release := make(chan struct{}), make(chan struct{})
	const callers = 8
	errs := make(chan error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := m.get(1, func() (int, error) {
				close(started)
				<-release
				return 0, errBad
			})
			errs <- err
		}()
		if i == 0 {
			<-started
		}
	}
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, errBad) {
			t.Fatalf("caller got %v, want %v", err, errBad)
		}
	}
	if m.runs.Load() != 1 {
		t.Fatalf("computation ran %d times, want 1", m.runs.Load())
	}

	// The same holds for a real pass: an invalid L2 geometry fails the
	// replay for every concurrent caller.
	e, err := NewEvaluator(genTrace(t, "gcc", 2000))
	if err != nil {
		t.Fatal(err)
	}
	k := levelKey{
		l1i: l1Key{cfg: mem.CacheConfig{SizeKB: 16, LineBytes: 32, Assoc: 4, LatencyCycles: 1}},
		l1d: l1Key{data: true, cfg: mem.CacheConfig{SizeKB: 16, LineBytes: 32, Assoc: 4, LatencyCycles: 1}},
		l2:  mem.CacheConfig{SizeKB: 256, LineBytes: 96, Assoc: 4, LatencyCycles: 1},
	}
	var fails sync.WaitGroup
	for i := 0; i < callers; i++ {
		fails.Add(1)
		go func() {
			defer fails.Done()
			if _, err := e.levelPass(k); err == nil {
				t.Error("invalid L2 geometry: want error")
			}
		}()
	}
	fails.Wait()
	if e.levels.runs.Load() != 1 {
		t.Fatalf("failing replay ran %d times, want 1", e.levels.runs.Load())
	}
}
