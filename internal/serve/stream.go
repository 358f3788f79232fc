package serve

import (
	"fmt"
	"time"

	"fsdinference/internal/model"
	"fsdinference/internal/workload"
)

// ReplayStream drives a TraceStream through the service inside one
// simulated-time run, submitting just-in-time as virtual time reaches each
// batch and folding results incrementally, so a million-query day runs in
// bounded memory: neither the trace, nor the handles, nor the latency
// samples are ever all live at once. The feeder pulls the next batch from
// inside the kernel when the clock reaches the current batch's last
// arrival, so at most one batch of unarrived requests is in flight ahead
// of the clock. Each batch is routed and order-checked in full before any
// of it is submitted, so a rejected batch leaves nothing of itself
// pending.
//
// The report matches Replay's except that latency percentiles are folded
// through a log-linear histogram (bucket upper bounds within ~6%, see
// latencyHist) rather than recomputed from retained samples — count,
// mean, min and max stay exact — and per-request outputs are released as
// queries resolve, so opts.Verify is not supported.
func (s *Service) ReplayStream(stream workload.TraceStream, opts ReplayOptions) (*Report, error) {
	opts = opts.withDefaults()
	if opts.Verify {
		return nil, fmt.Errorf("serve: Verify is not supported in streaming replay (outputs are released as queries resolve)")
	}
	if err := s.checkChaos(opts.Chaos); err != nil {
		return nil, err
	}
	route := s.router(opts)

	// Drain any requests already in flight first, so the metered window
	// below measures this stream and nothing else.
	if err := s.Run(); err != nil {
		return nil, err
	}
	base := s.Now()
	win := s.openWindow(base)

	f := newReplayFold(base, false)
	submitted, resolved := 0, 0
	// notify fires once per resolved handle — completions and rejects
	// alike — folding the result and releasing it.
	notify := func(h *Handle) {
		resolved++
		f.add(s.byName[h.endpoint], h)
	}

	var names []string // the current batch's routes, reused across batches
	var feedErr error
	var feed func()
	feed = func() {
		qs := stream.Next()
		if len(qs) == 0 {
			return
		}
		names = names[:0]
		var prev time.Duration
		for i, q := range qs {
			if q.At < prev {
				feedErr = fmt.Errorf("serve: stream arrivals out of order (%v after %v)", q.At, prev)
				return
			}
			prev = q.At
			name, err := s.routeQuery(route, submitted+i, q)
			if err != nil {
				feedErr = err
				return
			}
			names = append(names, name)
		}
		for i, q := range qs {
			in := model.GenerateInputs(q.Neurons, q.Samples, opts.Density, opts.Seed+int64(submitted))
			var so SubmitOptions
			if opts.Submit != nil {
				so = opts.Submit(submitted, q)
			}
			s.submit(names[i], in, base+q.At, so, notify, submitted)
			submitted++
		}
		// Pull the next batch when the clock reaches this batch's last
		// arrival; stream order guarantees the next batch arrives at or
		// after it.
		s.env.K.At(base+prev-s.Now(), feed)
	}
	feed()
	if feedErr != nil {
		return nil, feedErr
	}

	chaos := s.scheduleChaos(base, opts.Chaos)

	if err := s.Run(); err != nil {
		return nil, err
	}
	if feedErr != nil {
		return nil, feedErr
	}
	if resolved != submitted {
		return nil, fmt.Errorf("serve: %d of %d streamed queries did not resolve", submitted-resolved, submitted)
	}
	s.closeWindow(win)
	return s.replayReport(f, win, chaos), nil
}
