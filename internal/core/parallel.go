package core

import (
	"sync"
	"sync/atomic"

	"starlinkview/internal/netsim"
)

// runIndexed runs fn(0) .. fn(n-1) across the study's worker budget.
// Determinism is preserved by construction: each index owns its seeds and
// writes only its own output slot, so the schedule cannot leak into results;
// callers assemble outputs in index order afterwards. The first error by
// index wins, matching what the serial loop would have returned.
func (s *Study) runIndexed(n int, fn func(i int) error) error {
	workers := s.workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// newSim returns a simulator in the state netsim.NewSim(seed) returns,
// renewed from an idle one when the study has one, so that packets, the
// free-list and the event queue grow once per worker rather than once per
// run. Which task renews which simulator cannot change a result: a renewed
// Sim runs exactly as a new one. The caller hands it back with releaseSim
// once nothing of its run is used any more.
func (s *Study) newSim(seed int64) *netsim.Sim {
	var idle *netsim.Sim
	s.simMu.Lock()
	if n := len(s.sims); n > 0 {
		idle = s.sims[n-1]
		s.sims[n-1] = nil
		s.sims = s.sims[:n-1]
	}
	s.simMu.Unlock()
	if idle == nil {
		return netsim.NewSim(seed)
	}
	return idle.Renew(seed)
}

// releaseSim hands sim back for newSim to renew. The study keeps at most one
// idle simulator per worker; it drops the rest.
func (s *Study) releaseSim(sim *netsim.Sim) {
	s.simMu.Lock()
	defer s.simMu.Unlock()
	if len(s.sims) < s.workers() {
		s.sims = append(s.sims, sim)
	}
}
