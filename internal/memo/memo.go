// Package memo is the process-wide memo behind every cross-cell cache:
// workload profiles, DLS schedules and perturbation slowdown streams
// (DESIGN.md §7, §9). Each value is a pure function of its key, so a value
// served without being retained is the same value, only unshared; that is
// what lets every memo be bounded without changing an output byte.
package memo

import (
	"sync"
	"sync/atomic"
)

// Memo retains the values of keys of type K while their summed cost stays
// within a budget. Past the budget, Get still builds and serves values, it
// just stops retaining them. It is safe for concurrent use.
type Memo[K comparable, V any] struct {
	values sync.Map // K -> V
	used   atomic.Int64
	budget int64
	cost   func(V) int64
}

// New returns a memo that retains values while the sum of cost over them
// is at most budget.
func New[K comparable, V any](budget int64, cost func(V) int64) *Memo[K, V] {
	return &Memo[K, V]{budget: budget, cost: cost}
}

// Get returns key's retained value, or else builds it, retains it if its
// cost fits what is left of the budget, and returns it. An error from
// build is returned as is, and nothing is retained.
//
// The key stays typed until the store, so a hit allocates nothing.
func (m *Memo[K, V]) Get(key K, build func() (V, error)) (V, error) {
	if v, ok := m.values.Load(key); ok {
		return v.(V), nil
	}
	v, err := build()
	if err != nil {
		return v, err
	}
	// Claiming before storing keeps concurrent misses from overshooting
	// the budget; a claim that does not fit, or that loses the store to
	// another goroutine, is given back.
	c := m.cost(v)
	if m.used.Add(c) > m.budget {
		m.used.Add(-c)
		return v, nil // over budget: serve unretained
	}
	if prev, loaded := m.values.LoadOrStore(key, v); loaded {
		m.used.Add(-c)
		return prev.(V), nil
	}
	return v, nil
}

// Used reports the summed cost of the retained values.
func (m *Memo[K, V]) Used() int64 { return m.used.Load() }
