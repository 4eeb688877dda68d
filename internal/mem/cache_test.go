package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func smallCache(t *testing.T) *Cache {
	t.Helper()
	c, err := NewCache(CacheConfig{SizeKB: 1, LineBytes: 64, Assoc: 2, LatencyCycles: 1})
	if err != nil {
		t.Fatal(err)
	}
	return c // 16 lines, 8 sets, 2-way
}

func TestCacheConfigValidate(t *testing.T) {
	good := CacheConfig{SizeKB: 16, LineBytes: 32, Assoc: 4, LatencyCycles: 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []CacheConfig{
		{SizeKB: 16, LineBytes: 48, Assoc: 4, LatencyCycles: 1},   // non-pow2 line
		{SizeKB: 16, LineBytes: 32, Assoc: 0, LatencyCycles: 1},   // zero assoc
		{SizeKB: 16, LineBytes: 32, Assoc: 4, LatencyCycles: 0},   // zero latency
		{SizeKB: 16, LineBytes: 32, Assoc: 3, LatencyCycles: 1},   // 512 lines %3 != 0... actually 512/3 no
		{SizeKB: 3, LineBytes: 32, Assoc: 4, LatencyCycles: 1},    // 96 lines / 4 = 24 sets, not pow2
		{SizeKB: 16, LineBytes: 32, Assoc: 512, LatencyCycles: 0}, // bad latency
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d (%+v): want error", i, c)
		}
	}
	disabled := CacheConfig{}
	if err := disabled.Validate(); err != nil {
		t.Fatal("disabled level should validate")
	}
	if disabled.Enabled() {
		t.Fatal("zero-size cache should be disabled")
	}
}

func TestNewCacheRejectsDisabled(t *testing.T) {
	if _, err := NewCache(CacheConfig{}); err == nil {
		t.Fatal("want error")
	}
}

func TestCacheColdMissThenHit(t *testing.T) {
	c := smallCache(t)
	if c.Access(0x1000) {
		t.Fatal("cold access should miss")
	}
	if !c.Access(0x1000) {
		t.Fatal("second access should hit")
	}
	if !c.Access(0x1010) {
		t.Fatal("same-line access should hit")
	}
	if c.Accesses() != 3 || c.Misses() != 1 {
		t.Fatalf("stats %d/%d", c.Misses(), c.Accesses())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := smallCache(t) // 8 sets, 2-way, 64B lines
	// Three addresses mapping to set 0: tags differ by 8 lines * 64B = 512B.
	a, b, d := uint64(0), uint64(512), uint64(1024)
	c.Access(a) // miss, set0 = [a]
	c.Access(b) // miss, set0 = [b, a]
	c.Access(a) // hit, set0 = [a, b]
	c.Access(d) // miss, evicts LRU=b → [d, a]
	if !c.Access(a) {
		t.Fatal("a should have survived (was MRU)")
	}
	if c.Access(b) {
		t.Fatal("b should have been evicted")
	}
}

func TestCacheFullyAssociative(t *testing.T) {
	c, err := NewCache(CacheConfig{SizeKB: 1, LineBytes: 64, Assoc: 16, LatencyCycles: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 16 lines, 1 set: any 16 distinct lines all fit.
	for i := uint64(0); i < 16; i++ {
		c.Access(i * 64)
	}
	for i := uint64(0); i < 16; i++ {
		if !c.Access(i * 64) {
			t.Fatalf("line %d evicted in fully associative cache", i)
		}
	}
}

func TestCacheWorkingSetFitsVsSpills(t *testing.T) {
	// A working set equal to the cache hits after warm-up; double the
	// working set with a direct sweep thrashes.
	fit, _ := NewCache(CacheConfig{SizeKB: 4, LineBytes: 64, Assoc: 4, LatencyCycles: 1})
	lines := uint64(4 * 1024 / 64)
	for pass := 0; pass < 3; pass++ {
		for i := uint64(0); i < lines; i++ {
			fit.Access(i * 64)
		}
	}
	// After warm-up, passes 2-3 are all hits: misses == lines.
	if fit.Misses() != lines {
		t.Fatalf("fitting working set missed %d times, want %d", fit.Misses(), lines)
	}
	spill, _ := NewCache(CacheConfig{SizeKB: 4, LineBytes: 64, Assoc: 4, LatencyCycles: 1})
	for pass := 0; pass < 3; pass++ {
		for i := uint64(0); i < 2*lines; i++ {
			spill.Access(i * 64)
		}
	}
	// Cyclic sweep of 2× capacity under LRU misses every time.
	if spill.MissRate() < 0.99 {
		t.Fatalf("spilling working set miss rate %.3f, want ~1", spill.MissRate())
	}
}

func TestLargerCacheNeverWorseOnRandomStream(t *testing.T) {
	// Inclusion property check: a 2× cache (same line, same assoc per set
	// count scaled) should not miss more on any stream.
	gen := func(seed int64) []uint64 {
		r := rand.New(rand.NewSource(seed))
		addrs := make([]uint64, 20000)
		for i := range addrs {
			addrs[i] = uint64(r.Intn(1 << 16))
		}
		return addrs
	}
	small, _ := NewCache(CacheConfig{SizeKB: 8, LineBytes: 64, Assoc: 4, LatencyCycles: 1})
	big, _ := NewCache(CacheConfig{SizeKB: 32, LineBytes: 64, Assoc: 4, LatencyCycles: 1})
	for _, a := range gen(3) {
		small.Access(a)
		big.Access(a)
	}
	if big.Misses() > small.Misses() {
		t.Fatalf("bigger cache missed more: %d vs %d", big.Misses(), small.Misses())
	}
}

func TestCacheReset(t *testing.T) {
	c := smallCache(t)
	c.Access(0x40)
	c.Reset()
	if c.Accesses() != 0 || c.Misses() != 0 {
		t.Fatal("reset did not clear stats")
	}
	if c.Access(0x40) {
		t.Fatal("reset did not clear contents")
	}
}

func TestMissRateZeroBeforeAccess(t *testing.T) {
	c := smallCache(t)
	if c.MissRate() != 0 {
		t.Fatal("miss rate before any access should be 0")
	}
}

// Property: hits + misses == accesses, and re-access of the most recent
// address always hits.
func TestCacheInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		c, err := NewCache(CacheConfig{SizeKB: 2, LineBytes: 32, Assoc: 2, LatencyCycles: 1})
		if err != nil {
			return false
		}
		r := rand.New(rand.NewSource(seed))
		var last uint64
		for i := 0; i < 500; i++ {
			last = uint64(r.Intn(1 << 14))
			c.Access(last)
		}
		if !c.Access(last) {
			return false
		}
		return c.Accesses() == 501
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// refCache is the slice-of-slices cache the flat tag array replaced: one
// tag slice and one valid slice per set, both in LRU order. It is kept as
// the oracle of TestCacheMatchesReference.
type refCache struct {
	sets             [][]uint64
	valid            [][]bool
	setMask          uint64
	lineBits         uint
	accesses, misses uint64
}

func newRefCache(cfg CacheConfig) *refCache {
	nsets := cfg.SizeKB * 1024 / cfg.LineBytes / cfg.Assoc
	c := &refCache{sets: make([][]uint64, nsets), valid: make([][]bool, nsets), setMask: uint64(nsets - 1)}
	for i := range c.sets {
		c.sets[i] = make([]uint64, cfg.Assoc)
		c.valid[i] = make([]bool, cfg.Assoc)
	}
	for b := cfg.LineBytes; b > 1; b >>= 1 {
		c.lineBits++
	}
	return c
}

func (c *refCache) touch(addr uint64) bool {
	tag := addr >> c.lineBits
	ways, valid := c.sets[tag&c.setMask], c.valid[tag&c.setMask]
	for w := range ways {
		if valid[w] && ways[w] == tag {
			copy(ways[1:w+1], ways[:w])
			copy(valid[1:w+1], valid[:w])
			ways[0], valid[0] = tag, true
			return true
		}
	}
	copy(ways[1:], ways[:len(ways)-1])
	copy(valid[1:], valid[:len(valid)-1])
	ways[0], valid[0] = tag, true
	return false
}

func (c *refCache) access(addr uint64) bool {
	c.accesses++
	if c.touch(addr) {
		return true
	}
	c.misses++
	return false
}

func (c *refCache) reset() {
	for i := range c.valid {
		clear(c.valid[i])
	}
	c.accesses, c.misses = 0, 0
}

// TestCacheMatchesReference replays seeded random streams mixing Access,
// Install and Reset through the flat cache and the reference cache and
// requires identical hit/miss outcomes and counters at every step.
func TestCacheMatchesReference(t *testing.T) {
	geoms := []CacheConfig{
		{SizeKB: 1, LineBytes: 64, Assoc: 1},    // direct mapped
		{SizeKB: 1, LineBytes: 64, Assoc: 16},   // fully associative
		{SizeKB: 2, LineBytes: 32, Assoc: 2},    // 32 sets
		{SizeKB: 4, LineBytes: 64, Assoc: 4},    // 16 sets
		{SizeKB: 8, LineBytes: 128, Assoc: 8},   // 8 sets
		{SizeKB: 1, LineBytes: 2, Assoc: 4},     // smallest legal line
		{SizeKB: 16, LineBytes: 256, Assoc: 64}, // fully associative, wide
	}
	for gi, g := range geoms {
		g.LatencyCycles = 1
		c, err := NewCache(g)
		if err != nil {
			t.Fatalf("geometry %d: %v", gi, err)
		}
		ref := newRefCache(g)
		r := rand.New(rand.NewSource(int64(gi) + 1))
		// Addresses over ~4x the capacity, with a hot region so hits
		// and evictions both occur.
		span := uint64(4 * g.SizeKB * 1024)
		for step := 0; step < 20000; step++ {
			addr := uint64(r.Int63n(int64(span)))
			if r.Intn(3) == 0 {
				addr %= span / 8
			}
			switch op := r.Intn(100); {
			case op == 0:
				c.Reset()
				ref.reset()
			case op < 15:
				if got, want := c.Install(addr), ref.touch(addr); got != want {
					t.Fatalf("geometry %d step %d: Install(%#x) = %v, reference %v", gi, step, addr, got, want)
				}
			default:
				if got, want := c.Access(addr), ref.access(addr); got != want {
					t.Fatalf("geometry %d step %d: Access(%#x) = %v, reference %v", gi, step, addr, got, want)
				}
			}
			if c.Accesses() != ref.accesses || c.Misses() != ref.misses {
				t.Fatalf("geometry %d step %d: counters %d/%d, reference %d/%d",
					gi, step, c.Misses(), c.Accesses(), ref.misses, ref.accesses)
			}
		}
	}
}

// TestCacheInclusionAcrossAssociativity checks the LRU inclusion
// property: at a fixed set count, adding ways never adds misses.
func TestCacheInclusionAcrossAssociativity(t *testing.T) {
	const sets, line = 16, 64
	r := rand.New(rand.NewSource(11))
	addrs := make([]uint64, 30000)
	for i := range addrs {
		addrs[i] = uint64(r.Intn(1 << 17))
	}
	prev := uint64(len(addrs) + 1)
	for assoc := 1; assoc <= 32; assoc *= 2 {
		c, err := NewCache(CacheConfig{SizeKB: sets * assoc * line / 1024, LineBytes: line, Assoc: assoc, LatencyCycles: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range addrs {
			c.Access(a)
		}
		if c.Misses() > prev {
			t.Fatalf("%d-way missed %d times, more than the %d of half the ways", assoc, c.Misses(), prev)
		}
		prev = c.Misses()
	}
}

func TestCacheAccessAllocatesNothing(t *testing.T) {
	c, err := NewCache(CacheConfig{SizeKB: 32, LineBytes: 64, Assoc: 4, LatencyCycles: 1})
	if err != nil {
		t.Fatal(err)
	}
	addr := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		addr += 4160
		c.Access(addr)
		c.Install(addr + 64)
	})
	if allocs != 0 {
		t.Fatalf("Access+Install allocated %v times per run, want 0", allocs)
	}
}

// TestCacheSentinelUnreachable pins the guard that keeps the empty-way
// tag out of reach: 1-byte lines are rejected, and the all-ones address
// misses a cold cache (it would hit an empty way if its tag aliased the
// sentinel) and then hits like any other line.
func TestCacheSentinelUnreachable(t *testing.T) {
	if err := (CacheConfig{SizeKB: 1, LineBytes: 1, Assoc: 1, LatencyCycles: 1}).Validate(); err == nil {
		t.Fatal("1-byte lines: want error")
	}
	for _, g := range []CacheConfig{
		{SizeKB: 1, LineBytes: 2, Assoc: 1, LatencyCycles: 1},
		{SizeKB: 1, LineBytes: 2, Assoc: 512, LatencyCycles: 1},
		{SizeKB: 8192, LineBytes: 256, Assoc: 8, LatencyCycles: 1},
	} {
		c, err := NewCache(g)
		if err != nil {
			t.Fatal(err)
		}
		const top = ^uint64(0)
		if c.Access(top) {
			t.Fatalf("%+v: all-ones address hit a cold cache", g)
		}
		if !c.Access(top) || !c.Install(top-1) {
			t.Fatalf("%+v: all-ones line not retained", g)
		}
		if c.Misses() != 1 {
			t.Fatalf("%+v: %d misses, want 1", g, c.Misses())
		}
	}
}
