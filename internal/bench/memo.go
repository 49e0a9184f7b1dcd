package bench

import (
	"bytes"
	"sync"
)

// memo is a single-flight map from a comparable key plus input bytes to
// one value: the engine keeps one per build stage. The first caller of a
// (key, inputs) pair owns its slot and fills it; every later caller
// reuses the slot and waits until it is filled. Inputs are compared with
// bytes.Equal inside the key's bucket instead of being copied into the
// key. A slot keeps its value or its error for the memo's lifetime:
// every stage is deterministic in its key and inputs, and no context
// reaches one, so an error is as final as a value. The zero value is
// empty and ready; a memo is safe for concurrent use.
type memo[K comparable, V any] struct {
	mu     sync.Mutex
	slots  map[K][]*slot[V]
	runs   int // slots created, each filled by one run of the stage
	reused int // lookups served by a slot another caller created
}

// slot is one memoized value. done is closed once val and err are final.
type slot[V any] struct {
	inputs [][]byte
	done   chan struct{}
	val    V
	err    error
}

func newSlot[V any](inputs ...[]byte) *slot[V] {
	return &slot[V]{inputs: inputs, done: make(chan struct{})}
}

// fill publishes the owner's result to every caller of the slot.
func (s *slot[V]) fill(val V, err error) {
	s.val, s.err = val, err
	close(s.done)
}

// wait returns the slot's result once it is filled.
func (s *slot[V]) wait() (V, error) {
	<-s.done
	return s.val, s.err
}

// claim returns the slot of (key, inputs), and whether the caller
// created it and so must fill it.
func (m *memo[K, V]) claim(key K, inputs ...[]byte) (*slot[V], bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
outer:
	for _, s := range m.slots[key] {
		for i, in := range inputs {
			if !bytes.Equal(s.inputs[i], in) {
				continue outer
			}
		}
		m.reused++
		return s, false
	}
	if m.slots == nil {
		m.slots = map[K][]*slot[V]{}
	}
	s := newSlot[V](inputs...)
	m.slots[key] = append(m.slots[key], s)
	m.runs++
	return s, true
}

// get returns the result for (key, inputs), computing it with run on
// the calling goroutine unless another caller has.
func (m *memo[K, V]) get(key K, run func() (V, error), inputs ...[]byte) (V, error) {
	s, owner := m.claim(key, inputs...)
	if owner {
		s.fill(run())
	}
	return s.wait()
}

// counts returns how many times the stage ran and how many lookups
// reused a run.
func (m *memo[K, V]) counts() (runs, reused int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.runs, m.reused
}
