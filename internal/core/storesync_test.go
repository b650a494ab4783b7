package core

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"optassign/internal/assign"
)

// heldStore is a BatchCacheStore shaped like cas.Store's group commit:
// PutBatch appends and returns, and Sync makes every value appended
// before the call durable, but only once the test's releaser lets it go,
// so a Sync is held open for a while. Get serves appended values, as
// cas.Store does once the fsync it waits for has landed.
type heldStore struct {
	mu      sync.Mutex
	data    map[string]float64
	durable map[string]bool
	pending []string // appended, not yet durable, in append order
	syncs   int
	hold    chan struct{}
}

// newHeldStore returns a heldStore whose Syncs a goroutine releases one
// at a time until the test ends.
func newHeldStore(t *testing.T) *heldStore {
	s := &heldStore{data: map[string]float64{}, durable: map[string]bool{}, hold: make(chan struct{})}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case s.hold <- struct{}{}:
			case <-done:
				return
			}
		}
	}()
	t.Cleanup(func() {
		close(done)
		wg.Wait()
	})
	return s
}

func (s *heldStore) Get(key string) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.data[key]
	return v, ok
}

func (s *heldStore) Put(key string, perf float64) error {
	if err := s.PutBatch([]string{key}, []float64{perf}); err != nil {
		return err
	}
	return s.Sync()
}

func (s *heldStore) PutBatch(keys []string, perfs []float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, k := range keys {
		if _, ok := s.data[k]; !ok {
			s.data[k] = perfs[i]
			s.pending = append(s.pending, k)
		}
	}
	return nil
}

func (s *heldStore) Sync() error {
	s.mu.Lock()
	n := len(s.pending)
	s.mu.Unlock()
	<-s.hold
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range s.pending[:n] {
		s.durable[k] = true
	}
	s.pending = s.pending[n:]
	s.syncs++
	return nil
}

func (s *heldStore) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(len(s.data)) * 32
}

// state returns the Syncs that returned and the values still waiting
// for one.
func (s *heldStore) state() (syncs, pending int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncs, len(s.pending)
}

// TestBatchCommitsWaitForStoreSync: over a store whose Syncs are held,
// a one-worker batched IteratePool and a CollectSampleBatched hand a
// draw to commit only once the Sync covering its cache value has
// returned, and with or without a commit func neither returns before
// its last Sync.
func TestBatchCommitsWaitForStoreSync(t *testing.T) {
	cfg := IterConfig{Topo: batchTopo(), Tasks: 5, AcceptLossPct: 0.01, Ninit: 400, Ndelta: 100, MaxSamples: 800, Seed: 3}
	calls := []struct {
		name string
		run  func(r *CachedRunner, commit CommitFunc) error
	}{
		{"IteratePool", func(r *CachedRunner, commit CommitFunc) error {
			_, err := IteratePool(context.Background(), cfg, onePool(r), BatchOptions{Size: 16}, commit)
			if errors.Is(err, ErrBudgetExhausted) {
				return nil
			}
			return err
		}},
		{"CollectSampleBatched", func(r *CachedRunner, commit CommitFunc) error {
			_, _, err := CollectSampleBatched(context.Background(), rand.New(rand.NewSource(3)), cfg.Topo, cfg.Tasks, 600, r, BatchOptions{Size: 16}, commit)
			return err
		}},
	}
	for _, c := range calls {
		for _, committed := range []bool{true, false} {
			st := newHeldStore(t)
			// An L1 smaller than the classes sends some probes to the store.
			cache := NewCache(8, nil)
			cache.AttachStore(st)
			r := NewCachedContextRunner(&batchSource{}, cache, "tb")
			var commit CommitFunc
			commits := 0
			if committed {
				commit = func(a assign.Assignment, _ float64, _ error) error {
					commits++
					key := string(r.appendKey(nil, a))
					st.mu.Lock()
					durable := st.durable[key]
					st.mu.Unlock()
					if !durable {
						t.Errorf("%s: draw %d reached commit before the Sync of its cache value returned", c.name, commits)
					}
					return nil
				}
			}
			if err := c.run(r, commit); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if committed && commits == 0 {
				t.Fatalf("%s: nothing committed", c.name)
			}
			if syncs, pending := st.state(); syncs == 0 || pending != 0 {
				t.Fatalf("%s (commit func %v): returned after %d Syncs with %d values not yet durable, want none",
					c.name, committed, syncs, pending)
			}
		}
	}
}
