package cpu

import (
	"sync"
	"sync/atomic"
)

// memo is a concurrent once-only cache. The first get of a key computes
// its value; every concurrent or later get of that key waits for the same
// computation and shares its value and error, so no entry is ever
// computed twice, whatever the number of workers asking for it.
type memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*memoEntry[V]
	// runs counts computations started; it equals len(m) when every
	// entry was computed exactly once.
	runs atomic.Int64
}

type memoEntry[V any] struct {
	once sync.Once
	val  V
	err  error
}

// get returns the value for k, running compute if no caller has yet.
func (m *memo[K, V]) get(k K, compute func() (V, error)) (V, error) {
	m.mu.Lock()
	if m.m == nil {
		m.m = map[K]*memoEntry[V]{}
	}
	e := m.m[k]
	if e == nil {
		e = &memoEntry[V]{}
		m.m[k] = e
	}
	m.mu.Unlock()
	e.once.Do(func() {
		m.runs.Add(1)
		e.val, e.err = compute()
	})
	return e.val, e.err
}
