package sim

import "context"

// IntervalHook is invoked at each execution-interval boundary with the
// number of completed intervals. Returning a non-nil error stops the
// run; the error is propagated to the caller. The simulator is at a
// clean boundary when the hook runs, so State() taken inside it resumes
// bit-identically.
type IntervalHook func(completed int) error

// RunIntervalsContext executes until n execution intervals have
// completed (counting from the simulator's construction or last
// restore, so a resumed run passes the same total n), until ctx is
// cancelled, or until hook returns an error. Cancellation is observed
// only at interval boundaries — the run never stops mid-interval, which
// keeps every observable stopping point a valid checkpoint site. The
// partial Result accumulated so far is returned alongside the error.
func (s *Simulator) RunIntervalsContext(ctx context.Context, n int, hook IntervalHook) (Result, error) {
	done := ctx.Done()
	for s.intervalIdx < n {
		prev := s.intervalIdx
		if !s.advance() {
			s.releaseBarrier()
		}
		if s.intervalIdx == prev {
			continue
		}
		select {
		case <-done:
			return s.result(), ctx.Err()
		default:
		}
		if hook != nil {
			if err := hook(s.intervalIdx); err != nil {
				return s.result(), err
			}
		}
	}
	return s.result(), nil
}

// RunSectionsContext executes n barrier-delimited parallel sections,
// observing ctx and hook at interval boundaries and barriers exactly
// like RunIntervalsContext.
func (s *Simulator) RunSectionsContext(ctx context.Context, n int, hook IntervalHook) (Result, error) {
	done := ctx.Done()
	for completed := 0; completed < n; completed++ {
		for {
			prev := s.intervalIdx
			if !s.advance() {
				break
			}
			if s.intervalIdx == prev {
				continue
			}
			select {
			case <-done:
				return s.result(), ctx.Err()
			default:
			}
			if hook != nil {
				if err := hook(s.intervalIdx); err != nil {
					return s.result(), err
				}
			}
		}
		s.releaseBarrier()
		select {
		case <-done:
			return s.result(), ctx.Err()
		default:
		}
	}
	return s.result(), nil
}

// CompletedSections returns how many barriers have been crossed.
func (s *Simulator) CompletedSections() int { return s.barriers }
