package cpu

import (
	"slices"
	"sync"

	"perfpred/internal/mem"
	"perfpred/internal/trace"
)

// The memory hierarchy is simulated level by level. Under LRU, a TLB's or
// an L1's hit/miss sequence depends only on its own geometry and on the
// address stream it sees, which is the whole trace's fetch or data stream
// whatever the rest of the hierarchy looks like. So each TLB and each L1
// geometry runs over the trace once, and each hierarchy then replays only
// its L1 miss streams, merged in program order, through its L2 and L3.
// The outcome counts per access class and serving level, times the
// configured latencies, give exactly the sums a per-access
// mem.Hierarchy run accumulates.

const (
	// prefetchMiss flags an L1D miss-stream entry whose next-line
	// prefetch also missed the L1D, so the replay installs that line in
	// the L2.
	prefetchMiss = 1 << 31
	// indexMask extracts the instruction index of a miss-stream entry.
	indexMask = prefetchMiss - 1
)

// tlbKey names one TLB pass. The miss penalty only scales the miss count,
// so cfg carries a normalised penalty of 1.
type tlbKey struct {
	data bool // the data stream (loads and stores) rather than fetches
	cfg  mem.TLBConfig
}

// l1Key names one first-level cache pass. The hit latency never changes
// which accesses hit, so cfg carries a normalised latency of 1.
type l1Key struct {
	data     bool // the L1D (loads and stores) rather than the L1I
	prefetch bool // next-line prefetch, data side only
	cfg      mem.CacheConfig
}

// levelKey names one L2/L3 replay: the two L1 passes whose miss streams
// it merges and the geometries of the levels below them.
type levelKey struct {
	l1i, l1d l1Key
	l2, l3   mem.CacheConfig // l3 is zero when the level is absent
}

// Access classes and serving levels of levelCounts.served.
const (
	instClass = iota
	loadClass
	storeClass
)

const (
	servedL2 = iota
	servedL3
	servedMem
)

// levelCounts is the outcome of one L2/L3 replay.
type levelCounts struct {
	// served counts the L1 misses of each access class by the level that
	// served them.
	served               [3][3]uint64
	l1iMisses, l1dMisses uint64
	l2Accesses, l2Misses uint64
	l3Accesses, l3Misses uint64
	prefetches           uint64
}

// geometry strips a cache level's hit latency, normalising it to 1 so the
// geometry still validates; an absent level becomes the zero config.
func geometry(c mem.CacheConfig) mem.CacheConfig {
	if !c.Enabled() {
		return mem.CacheConfig{}
	}
	c.LatencyCycles = 1
	return c
}

func isData(c trace.Class) bool { return c == trace.Load || c == trace.Store }

// memory returns the metrics of one hierarchy, assembled from its level
// passes. The configuration must have been validated.
func (e *Evaluator) memory(cfg mem.HierarchyConfig) (*memMetrics, error) {
	return e.mems.get(cfg, func() (*memMetrics, error) {
		itlbCfg, dtlbCfg := cfg.ITLB, cfg.DTLB
		itlbCfg.MissPenaltyCycles, dtlbCfg.MissPenaltyCycles = 1, 1
		itlb, err := e.tlbPass(tlbKey{cfg: itlbCfg})
		if err != nil {
			return nil, err
		}
		dtlb, err := e.tlbPass(tlbKey{data: true, cfg: dtlbCfg})
		if err != nil {
			return nil, err
		}
		lc, err := e.levelPass(levelKey{
			l1i: l1Key{cfg: geometry(cfg.L1I)},
			l1d: l1Key{data: true, prefetch: cfg.NextLinePrefetch, cfg: geometry(cfg.L1D)},
			l2:  geometry(cfg.L2),
			l3:  geometry(cfg.L3),
		})
		if err != nil {
			return nil, err
		}
		return e.assemble(cfg, itlb, dtlb, lc), nil
	})
}

// assemble turns a hierarchy's miss and outcome counts into its metrics.
// Every latency sum is an integer well below 2^53, so the products equal
// the per-access float64 sums of a mem.Hierarchy run bit for bit.
func (e *Evaluator) assemble(cfg mem.HierarchyConfig, itlb, dtlb uint64, lc *levelCounts) *memMetrics {
	// Latency beyond the L1 hit of an access served by each level.
	var lat [3]int64
	lat[servedL2] = int64(cfg.L2.LatencyCycles)
	lat[servedL3] = lat[servedL2]
	if cfg.L3.Enabled() {
		lat[servedL3] += int64(cfg.L3.LatencyCycles)
	}
	lat[servedMem] = lat[servedL3] + int64(cfg.MemLatencyCyc) + int64(cfg.MemLatencyBusy)
	cost := func(class, level int) int64 { return int64(lc.served[class][level]) * lat[level] }
	chip := func(class int) float64 { return float64(cost(class, servedL2) + cost(class, servedL3)) }

	m := &memMetrics{
		stats: mem.AccessStats{
			L1IAccesses: uint64(e.tm.n), L1IMisses: lc.l1iMisses,
			L1DAccesses: e.tm.dataAccesses, L1DMisses: lc.l1dMisses,
			L2Accesses: lc.l2Accesses, L2Misses: lc.l2Misses,
			L3Accesses: lc.l3Accesses, L3Misses: lc.l3Misses,
			ITLBMisses: itlb, DTLBMisses: dtlb,
			MemAccesses: lc.l2Misses,
			Prefetches:  lc.prefetches,
		},
		instCacheExtra: float64(cost(instClass, servedL2) + cost(instClass, servedL3) + cost(instClass, servedMem)),
		loadChipExtra:  chip(loadClass),
		loadMemExtra:   float64(cost(loadClass, servedMem)),
		storeChipExtra: chip(storeClass),
		storeMemExtra:  float64(cost(storeClass, servedMem)),
		tlbCycles:      float64(int64(itlb)*int64(cfg.ITLB.MissPenaltyCycles) + int64(dtlb)*int64(cfg.DTLB.MissPenaltyCycles)),
	}
	if cfg.L3.Enabled() {
		m.stats.MemAccesses = lc.l3Misses
	}
	return m
}

// tlbPass runs one TLB over the trace's fetch or data stream and returns
// its miss count.
func (e *Evaluator) tlbPass(k tlbKey) (uint64, error) {
	return e.tlbs.get(k, func() (uint64, error) {
		t, err := mem.NewTLB(k.cfg)
		if err != nil {
			return 0, err
		}
		for i := range e.tr.Instrs {
			ins := &e.tr.Instrs[i]
			switch {
			case !k.data:
				t.Access(ins.PC)
			case isData(ins.Class):
				t.Access(ins.Addr)
			}
		}
		return t.Misses(), nil
	})
}

// l1Pass runs one L1 over the trace's fetch or data stream and returns
// its miss stream: the instruction index of every miss in program order,
// with prefetchMiss set where the miss's next-line prefetch also missed.
func (e *Evaluator) l1Pass(k l1Key) ([]uint32, error) {
	return e.l1s.get(k, func() ([]uint32, error) {
		c, err := mem.NewCache(k.cfg)
		if err != nil {
			return nil, err
		}
		next := uint64(k.cfg.LineBytes)
		var misses []uint32
		for i := range e.tr.Instrs {
			ins := &e.tr.Instrs[i]
			addr := ins.PC
			if k.data {
				if !isData(ins.Class) {
					continue
				}
				addr = ins.Addr
			}
			if c.Access(addr) {
				continue
			}
			entry := uint32(i)
			if k.prefetch && !c.Install(addr+next) {
				entry |= prefetchMiss
			}
			misses = append(misses, entry)
		}
		// The stream is kept for the evaluator's lifetime; drop the
		// append slack.
		return slices.Clone(misses), nil
	})
}

// levelPass replays one hierarchy's merged L1 miss streams through its L2
// and L3. Within one instruction the fetch precedes the data access, and
// a data miss's prefetch follows its demand access, as in mem.Hierarchy.
func (e *Evaluator) levelPass(k levelKey) (*levelCounts, error) {
	return e.levels.get(k, func() (*levelCounts, error) {
		is, err := e.l1Pass(k.l1i)
		if err != nil {
			return nil, err
		}
		ds, err := e.l1Pass(k.l1d)
		if err != nil {
			return nil, err
		}
		l2, err := e.emptyCache(k.l2)
		if err != nil {
			return nil, err
		}
		defer e.releaseCache(l2)
		var l3 *mem.Cache
		if k.l3.Enabled() {
			if l3, err = e.emptyCache(k.l3); err != nil {
				return nil, err
			}
			defer e.releaseCache(l3)
		}
		lc := &levelCounts{l1iMisses: uint64(len(is)), l1dMisses: uint64(len(ds))}
		serve := func(class int, addr uint64) {
			switch {
			case l2.Access(addr):
				lc.served[class][servedL2]++
			case l3 != nil && l3.Access(addr):
				lc.served[class][servedL3]++
			default:
				lc.served[class][servedMem]++
			}
		}
		instrs := e.tr.Instrs
		next := uint64(k.l1d.cfg.LineBytes)
		for i, j := 0, 0; i < len(is) || j < len(ds); {
			if j == len(ds) || i < len(is) && is[i] <= ds[j]&indexMask {
				serve(instClass, instrs[is[i]].PC)
				i++
				continue
			}
			ins := &instrs[ds[j]&indexMask]
			class := loadClass
			if ins.Class == trace.Store {
				class = storeClass
			}
			serve(class, ins.Addr)
			if ds[j]&prefetchMiss != 0 {
				l2.Install(ins.Addr + next)
				lc.prefetches++
			}
			j++
		}
		lc.l2Accesses, lc.l2Misses = l2.Accesses(), l2.Misses()
		if l3 != nil {
			lc.l3Accesses, lc.l3Misses = l3.Accesses(), l3.Misses()
		}
		return lc, nil
	})
}

// emptyCache returns an empty cache of geometry g for a replay, reusing
// one an earlier replay released: an L2 or L3 tag array is up to a few
// hundred KB, and a full sweep runs over a hundred replays.
func (e *Evaluator) emptyCache(g mem.CacheConfig) (*mem.Cache, error) {
	if p, ok := e.spare.Load(g); ok {
		if c, ok := p.(*sync.Pool).Get().(*mem.Cache); ok {
			c.Reset()
			return c, nil
		}
	}
	return mem.NewCache(g)
}

// releaseCache hands a finished replay's cache back for reuse. Pooled
// caches are dropped by the garbage collector, not kept with the memo.
func (e *Evaluator) releaseCache(c *mem.Cache) {
	p, _ := e.spare.LoadOrStore(c.Config(), new(sync.Pool))
	p.(*sync.Pool).Put(c)
}
