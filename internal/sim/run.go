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
	for completed := 0; completed < n; completed++ {
		if _, err := s.runSlice(ctx, noSlice, hook); err != nil {
			return s.result(), err
		}
	}
	return s.result(), nil
}

// CompletedSections returns how many barriers have been crossed.
func (s *Simulator) CompletedSections() int { return s.barriers }

// runSlice runs s until it has retired q more instructions or, sooner,
// reached the barrier of its current section, which it then releases,
// and reports whether the section ended; with q = noSlice it runs the
// section to its end. It observes ctx and hook at every interval
// boundary and ctx once more after the release.
func (s *Simulator) runSlice(ctx context.Context, q uint64, hook IntervalHook) (bool, error) {
	done := ctx.Done()
	s.sliceLeft = q
	defer func() { s.sliceLeft = noSlice }()
	for {
		prev := s.intervalIdx
		if !s.advance() {
			break
		}
		if s.intervalIdx != prev {
			select {
			case <-done:
				return false, ctx.Err()
			default:
			}
			if hook != nil {
				if err := hook(s.intervalIdx); err != nil {
					return false, err
				}
			}
		}
		if s.sliceLeft == 0 && len(s.heap) > 0 {
			return false, nil
		}
	}
	s.releaseBarrier()
	select {
	case <-done:
		return true, ctx.Err()
	default:
	}
	return true, nil
}
