package sched

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// flightPool is a pool with one worker per job, so every same-key job can
// be on a worker at once. It counts executions and Started/Cached hooks.
type flightPool struct {
	*Pool[int]
	ran, started, cached atomic.Int64
	results              chan Result[int]
}

func newFlightPool(t *testing.T, n int) *flightPool {
	p := &flightPool{results: make(chan Result[int], n)}
	p.Pool = NewPool[int](PoolOptions{Workers: n, QueueDepth: n, Hooks: Hooks{
		Started: func(Event) { p.started.Add(1) },
		Cached:  func(Event) { p.cached.Add(1) },
	}})
	t.Cleanup(func() {
		// Bounded: a failed test can leave jobs blocked on its channels.
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		p.Shutdown(ctx)
	})
	return p
}

// submit enqueues a job on the shared key; run gets the 1-based number of
// this execution.
func (p *flightPool) submit(t *testing.T, ctx context.Context, run func(context.Context, int64) (int, error)) {
	t.Helper()
	job := Job[int]{Key: "k", Name: "dup", RunCtx: func(ctx context.Context) (int, error) { return run(ctx, p.ran.Add(1)) }}
	if err := p.Submit(ctx, job, func(r Result[int]) { p.results <- r }); err != nil {
		t.Fatal(err)
	}
}

// await polls cond: executions started, or followers joined on the
// current leader.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func (p *flightPool) followers(n int) func() bool {
	return func() bool {
		p.flight.mu.Lock()
		defer p.flight.mu.Unlock()
		c := p.flight.calls["k"]
		return c != nil && c.waiters >= n
	}
}

// TestPoolInflightDuplicates: N concurrent same-key submissions execute
// once. Every follower gets the leader's value as a Cached result and
// fires the Cached hook, never Started. A leader that is cancelled or
// panics does not poison its followers: the first to wake executes again
// and the rest share its value. A follower's own cancellation wins.
func TestPoolInflightDuplicates(t *testing.T) {
	const n = 5
	for _, tc := range []struct {
		name   string
		cancel bool                                              // cancel the leader's context instead of releasing it
		fails  func(error) bool                                  // the leader's error; nil when it succeeds
		leader func(context.Context, chan struct{}) (int, error) // the first execution
	}{
		{"execute-once", false, nil,
			func(_ context.Context, release chan struct{}) (int, error) { <-release; return 7, nil }},
		{"leader-cancelled", true,
			func(err error) bool { return errors.Is(err, context.Canceled) },
			func(ctx context.Context, _ chan struct{}) (int, error) { <-ctx.Done(); return 0, ctx.Err() }},
		{"leader-panicked", false,
			func(err error) bool { var pe *PanicError; return errors.As(err, &pe) },
			func(_ context.Context, release chan struct{}) (int, error) { <-release; panic("leader bug") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newFlightPool(t, n)
			release, retry := make(chan struct{}), make(chan struct{})
			job := func(ctx context.Context, run int64) (int, error) {
				if run == 1 {
					return tc.leader(ctx, release)
				}
				<-retry
				return 7, nil
			}
			lctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			p.submit(t, lctx, job)
			await(t, "the leader", func() bool { return p.ran.Load() == 1 })
			for i := 1; i < n; i++ {
				p.submit(t, context.Background(), job)
			}
			await(t, "followers", p.followers(n-1))
			if tc.cancel {
				cancel()
			}
			close(release)
			execs := int64(1)
			if tc.fails != nil {
				// The retry finishes once the other followers joined it.
				execs = 2
				await(t, "the retry", func() bool { return p.ran.Load() == 2 })
				await(t, "followers of the retry", p.followers(n-2))
				close(retry)
			}
			failed, uncached := int64(0), 0
			for i := 0; i < n; i++ {
				switch r := <-p.results; {
				case r.Err != nil && tc.fails != nil && tc.fails(r.Err):
					failed++
				case r.Err != nil || r.Value != 7:
					t.Fatalf("value %d err %v, want 7", r.Value, r.Err)
				case !r.Cached:
					uncached++
				}
			}
			if failed != execs-1 || uncached != 1 || p.ran.Load() != execs || p.started.Load() != execs || p.cached.Load() != n-execs {
				t.Fatalf("failed %d, uncached %d, ran %d, started %d, cached %d; want %d, 1, %d, %d, %d",
					failed, uncached, p.ran.Load(), p.started.Load(), p.cached.Load(), execs-1, execs, execs, n-execs)
			}
		})
	}
	t.Run("follower-cancelled", func(t *testing.T) {
		p := newFlightPool(t, n)
		release := make(chan struct{})
		job := func(context.Context, int64) (int, error) { <-release; return 3, nil }
		p.submit(t, context.Background(), job)
		await(t, "the leader", func() bool { return p.ran.Load() == 1 })
		fctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		p.submit(t, fctx, job)
		await(t, "the follower", p.followers(1))
		cancel()
		// Answered while the leader is still blocked.
		if r := <-p.results; !errors.Is(r.Err, context.Canceled) || r.Cached {
			t.Fatalf("cancelled follower: err %v cached %v, want context.Canceled", r.Err, r.Cached)
		}
		close(release)
		if r := <-p.results; r.Err != nil || r.Value != 3 || p.ran.Load() != 1 {
			t.Fatalf("leader: value %d err %v after %d executions", r.Value, r.Err, p.ran.Load())
		}
	})
}
