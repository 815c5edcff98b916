package sched

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// ErrQueueFull is returned by Pool.Submit when the bounded queue has no
// free slot. Service front ends translate it into backpressure (HTTP 429
// with Retry-After) instead of letting the queue grow without bound.
var ErrQueueFull = errors.New("sched: pool queue full")

// ErrPoolClosed is returned by Pool.Submit after Shutdown began: the pool
// drains what it has but accepts nothing new.
var ErrPoolClosed = errors.New("sched: pool closed")

// PoolOptions configure a Pool.
type PoolOptions struct {
	// Workers is the number of concurrent jobs; <= 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds the number of submitted-but-unstarted jobs;
	// <= 0 means 2×Workers. A full queue rejects Submit with ErrQueueFull.
	QueueDepth int
	// Ledger, Hooks, ArtifactDir and Logf behave exactly as in Options;
	// Hooks events carry Total == 0 (a service pool has no fixed job count)
	// and Seq counts monotonically over the pool's lifetime.
	Ledger      *Ledger
	Hooks       Hooks
	ArtifactDir string
	Logf        func(format string, args ...any)
}

// Pool is the long-running form of Run: a fixed set of workers consuming
// a bounded queue of context-carrying jobs, built for service front ends
// (cmd/cobrad) that submit sessions continuously instead of in batches.
// It shares the batch scheduler's execution path — ledger reuse with
// corrupt-entry recovery, panic isolation, cancellation before and during
// execution, never recording a cancelled job as complete. A job whose key
// is already executing on the pool waits for that execution and returns
// its value as a Cached result, so whether a repeat is answered without
// executing does not depend on whether its twin has finished yet.
type Pool[T any] struct {
	opt    PoolOptions
	queue  chan poolItem[T]
	wg     sync.WaitGroup
	flight *inflight[T]

	mu     sync.Mutex
	closed bool

	queued  atomic.Int64
	running atomic.Int64
	seq     atomic.Int64 // lifetime count of jobs that reached a worker
}

type poolItem[T any] struct {
	ctx  context.Context
	job  Job[T]
	done func(Result[T])
}

// NewPool starts the workers and returns the pool. Callers must Shutdown
// to release them.
func NewPool[T any](opt PoolOptions) *Pool[T] {
	workers := opt.Workers
	if workers <= 0 {
		workers = defaultWorkers()
	}
	depth := opt.QueueDepth
	if depth <= 0 {
		depth = 2 * workers
	}
	p := &Pool[T]{opt: opt, queue: make(chan poolItem[T], depth), flight: &inflight[T]{calls: map[string]*flightCall[T]{}}}
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

func (p *Pool[T]) worker() {
	defer p.wg.Done()
	sopt := Options{
		Ledger:      p.opt.Ledger,
		ArtifactDir: p.opt.ArtifactDir,
		Logf:        p.opt.Logf,
	}
	for it := range p.queue {
		p.queued.Add(-1)
		p.running.Add(1)
		seq := int(p.seq.Add(1))
		j := it.job
		r := executeJob(it.ctx, j, sopt, p.flight, func() {
			p.emit(p.opt.Hooks.Started, Event{Seq: seq, Name: j.Name, Key: j.Key})
		})
		if r.Cached {
			p.emit(p.opt.Hooks.Cached, Event{Seq: seq, Name: j.Name, Key: j.Key})
		} else {
			p.emit(p.opt.Hooks.Finished, Event{Seq: seq, Name: j.Name, Key: j.Key, Elapsed: r.Elapsed, Err: r.Err})
		}
		p.running.Add(-1)
		if it.done != nil {
			it.done(r)
		}
	}
}

// emit serializes hook invocations, matching the batch scheduler's
// contract that hooks may write to a shared sink without locking.
func (p *Pool[T]) emit(hook func(Event), ev Event) {
	if hook == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	hook(ev)
}

// Submit enqueues one job without blocking. ctx governs the job's whole
// lifetime: cancelled while queued means the job never starts and done
// receives ctx's error; cancelled mid-run is observed by RunCtx jobs. The
// done callback (may be nil) runs on a worker goroutine after the job
// resolves. Submit fails fast with ErrQueueFull when the queue is at
// capacity and ErrPoolClosed after Shutdown began.
func (p *Pool[T]) Submit(ctx context.Context, j Job[T], done func(Result[T])) error {
	if ctx == nil {
		ctx = context.Background()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPoolClosed
	}
	select {
	case p.queue <- poolItem[T]{ctx: ctx, job: j, done: done}:
		p.queued.Add(1)
		return nil
	default:
		return ErrQueueFull
	}
}

// QueueLen reports jobs submitted but not yet picked up by a worker.
func (p *Pool[T]) QueueLen() int { return int(p.queued.Load()) }

// QueueCap reports the bounded queue's capacity.
func (p *Pool[T]) QueueCap() int { return cap(p.queue) }

// Running reports jobs currently executing (or resolving) on workers.
func (p *Pool[T]) Running() int { return int(p.running.Load()) }

// Shutdown stops intake and drains: queued jobs still execute (their own
// contexts permitting — a caller wanting to abandon the queue cancels
// those contexts first), running jobs finish, and every done callback
// fires before Shutdown returns nil. If ctx expires first, Shutdown
// returns its error with workers still draining; callers then cancel the
// outstanding job contexts and call Wait for the workers to unwind.
func (p *Pool[T]) Shutdown(ctx context.Context) error {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.queue)
	}
	p.mu.Unlock()
	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Wait blocks until every worker has exited. Only meaningful after
// Shutdown initiated the drain.
func (p *Pool[T]) Wait() { p.wg.Wait() }
