package serve

import (
	"context"
	"errors"

	"repro/internal/flightrec"
	"repro/internal/runtime"
)

// dispatchLoop is the single goroutine that moves admitted jobs from
// tenant queues into the shared pool. Flow control and fairness both
// live here:
//
//   - At most Config.MaxRunningJobs jobs are in the pool at once; the
//     rest wait in their tenant queues, so the queues (and with them the
//     watermark backpressure and the fairness rotation) see real depth
//     instead of draining instantly into an unbounded pool.
//   - Lanes strictly outrank each other: every control-lane job anywhere
//     dispatches before any data-lane job, and data before telemetry.
//   - Within a lane, tenants are served round-robin by a rotation cursor
//     that advances past each tenant served, so a tenant with a thousand
//     queued jobs gets exactly one dispatch per rotation — a greedy
//     tenant saturates its own queue, not its neighbours' latency.
//
// The loop exits after a drain: admission is closed, every queue is
// empty, and the last running job has finished.
func (s *Server) dispatchLoop() {
	s.mu.Lock()
	for {
		for s.pendingJobs == 0 || s.runningJobs >= s.cfg.MaxRunningJobs {
			if s.draining && s.pendingJobs == 0 && s.runningJobs == 0 {
				close(s.idle)
				s.mu.Unlock()
				return
			}
			s.cond.Wait()
		}
		j := s.popLocked()
		if j == nil {
			// pendingJobs said otherwise; defensive (should not happen).
			continue
		}
		if j.state.terminal() {
			// Cancelled while queued and already finished; the queue entry
			// is just reaped.
			continue
		}
		j.state = jobRunning
		s.runningJobs++
		s.mu.Unlock()
		s.launch(j)
		s.mu.Lock()
	}
}

// popLocked removes the next job per the lane/rotation policy. Caller
// holds s.mu and has checked pendingJobs > 0.
func (s *Server) popLocked() *job {
	n := len(s.order)
	if n == 0 {
		return nil
	}
	for lane := Lane(0); lane < laneCount; lane++ {
		start := s.rr
		for k := 0; k < n; k++ {
			tn := s.order[(start+k)%n]
			if j := tn.q.popLane(lane); j != nil {
				s.rr = (start + k + 1) % n
				s.pendingJobs--
				return j
			}
		}
	}
	return nil
}

// launch submits one job's graph into the pool. Called without s.mu.
func (s *Server) launch(j *job) {
	// One hook closure for the whole graph: every task accounts itself
	// exactly once (executed or skipped), and the last one finishes the
	// job. The hook runs on pool workers and must stay non-blocking —
	// jobFinished's critical section is short and never waits on the pool.
	// Under fail_fast the first failure also cancels the job's context, so
	// tasks not yet dispatched skip instead of running.
	hook := func(err error) {
		if err != nil {
			j.noteErr(err)
			if j.failFast {
				j.cancel()
			}
		}
		if j.remaining.Add(-1) == 0 {
			s.jobFinished(j)
		}
	}
	// The pool takes the specs over: the job drops them so a terminal job
	// kept in the history pins none of its closures, dependence slices or
	// keys. Only launch touches j.specs after admission, so no lock is
	// needed.
	specs := j.specs
	j.specs = nil
	for i := range specs {
		// The attempts wrapper goes outermost (around any chaos injection),
		// so JobStatus.Attempts counts every body execution, injected
		// faults included. Wrapping happens once per task, here, because
		// the chaos injector's transient/sticky schedule is per-wrapper.
		body := specs[i].Body
		if s.inj != nil {
			body = s.inj.Wrap(j.num<<16|uint64(i), body)
		}
		specs[i].Body = func(ctx context.Context) error {
			j.attempts.Add(1)
			return body(ctx)
		}
		specs[i].OnDone = hook
	}
	s.marker(j, flightrec.MarkerLaunch)
	if _, err := s.rt.SubmitBatchCtx(j.ctx, specs); err != nil {
		// Nothing was submitted (cancelled before launch, or the pool is
		// shutting down): finish here — no task will ever account itself.
		s.mu.Lock()
		switch {
		case errors.Is(err, context.Canceled) || j.cancelRequested:
			s.finishLocked(j, jobCancelled)
		case errors.Is(err, runtime.ErrShutdown):
			j.noteErr(err)
			s.finishLocked(j, jobFailed)
		default:
			j.noteErr(err)
			s.finishLocked(j, jobFailed)
		}
		s.mu.Unlock()
	}
}
