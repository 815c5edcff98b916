// Package sched executes experiment cells as independent jobs on a worker
// pool. Every figure and table of the reproduction is a sweep of fully
// deterministic simulations that share no state, so the scheduler can run
// them concurrently and still return results in deterministic input order
// regardless of completion order.
//
// Each Job carries a content-hash Key identifying the cell (workload ×
// machine × strategy × scale). The key serves two purposes: jobs with the
// same key execute once and share the result (dedup — within one Run, and
// on a Pool for any job whose key is already executing), and an optional
// persistent Ledger keyed by job hash lets unchanged cells be skipped
// entirely across process runs (incremental mode).
package sched

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Job is one schedulable unit of work producing a value of type T.
type Job[T any] struct {
	// Key is the content-hash identity of the cell (see KeyOf). Jobs with
	// equal keys are assumed to produce identical values: within one Run
	// they execute once, a job whose key is already executing waits for
	// that execution and shares its value, and with a Ledger a previously
	// recorded value is reused across runs. An empty key disables all
	// three behaviours.
	Key string
	// Name is the human-readable label used by progress hooks.
	Name string
	// Run computes the cell. It must not share mutable state with other
	// jobs: the scheduler may invoke many Run functions concurrently.
	// Exactly one of Run and RunCtx must be set.
	Run func() (T, error)
	// RunCtx is the context-aware form of Run, for jobs that can be
	// cancelled mid-execution (long sessions on a service pool). The
	// context passed is the job's own context (Pool.Submit) or the run
	// context (RunContext). When both Run and RunCtx are set, RunCtx wins.
	RunCtx func(ctx context.Context) (T, error)
	// Artifacts, when non-nil and Options.ArtifactDir is set, is called
	// after a successful (non-cached) Run with the artifact directory —
	// the hook jobs use to dump per-cell observability artifacts (traces,
	// metrics, decision logs) keyed by the job's content hash. An error
	// surfaces as the job's Err: a cell whose evidence cannot be written
	// is treated as failed, not silently unobservable.
	Artifacts func(dir string) error
}

// PanicError is the job error produced when a Run panics: the scheduler
// isolates the panic to the owning job instead of tearing down the whole
// worker pool (and, for a service, the process).
type PanicError struct {
	Value any    // the recovered panic value
	Stack []byte // the panicking goroutine's stack
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sched: job panicked: %v", e.Value)
}

// Result pairs a job with its outcome, in the input order of Run.
type Result[T any] struct {
	Name    string
	Key     string
	Value   T
	Err     error
	Cached  bool          // served from the ledger or an in-flight duplicate, not executed
	Elapsed time.Duration // execution time (zero when Cached)
}

// Event describes a job state change delivered to Hooks.
type Event struct {
	Seq     int    // 1-based count of jobs that have reached this state
	Total   int    // distinct jobs in this Run (after key dedup)
	Name    string // Job.Name
	Key     string // Job.Key
	Elapsed time.Duration
	Err     error
}

// Hooks observe job progress. Invocations are serialized by the scheduler,
// so hooks may write to a shared sink without locking; they run on worker
// goroutines and should be fast. Any field may be nil.
type Hooks struct {
	Started  func(Event) // a job began executing
	Finished func(Event) // a job finished executing (Err set on failure)
	Cached   func(Event) // a job was skipped: a ledger entry or in-flight duplicate answered it
}

// Options configure one Run.
type Options struct {
	// Workers is the number of concurrent jobs; <= 0 means GOMAXPROCS.
	Workers int
	// Ledger, when non-nil, is consulted before executing a keyed job and
	// updated after a successful execution.
	Ledger *Ledger
	// Hooks receive progress callbacks.
	Hooks Hooks
	// ArtifactDir, when non-empty, enables the per-job Artifacts hooks
	// (each executed job with an Artifacts func receives this directory).
	ArtifactDir string
	// Logf, when non-nil, receives diagnostics the scheduler recovers
	// from rather than failing the run — ledger entries it had to
	// quarantine, panics it isolated. Nil discards them.
	Logf func(format string, args ...any)
}

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// inflight coalesces concurrent executions of one key. The first job to
// reach a key leads and executes; a job arriving while it runs waits and
// takes the leader's value as a cached result. A leader that fails,
// panics or is cancelled publishes nothing, and the first waiter to wake
// leads a new attempt.
type inflight[T any] struct {
	mu    sync.Mutex
	calls map[string]*flightCall[T]
}

type flightCall[T any] struct {
	done    chan struct{} // closed once value and ok are final
	value   T
	ok      bool
	waiters int // followers that joined, which tests wait on; guarded by inflight.mu
}

// join returns (c, true) when the caller leads key, and (c, false) once a
// leader succeeded. It returns early, with c nil, when ctx ends.
func (f *inflight[T]) join(ctx context.Context, key string) (*flightCall[T], bool) {
	for {
		f.mu.Lock()
		c := f.calls[key]
		if c == nil {
			c = &flightCall[T]{done: make(chan struct{})}
			f.calls[key] = c
			f.mu.Unlock()
			return c, true
		}
		c.waiters++
		f.mu.Unlock()
		select {
		case <-c.done:
			if c.ok {
				return c, false
			}
		case <-ctx.Done():
			return nil, false
		}
	}
}

// finish publishes a leader's result and retires its call. It runs after
// the ledger write, so a job arriving later reads the recorded entry.
func (f *inflight[T]) finish(key string, c *flightCall[T], r Result[T]) {
	f.mu.Lock()
	delete(f.calls, key)
	f.mu.Unlock()
	c.value, c.ok = r.Value, r.Err == nil
	close(c.done)
}

// executeJob runs one job under jctx with the shared hardening applied:
// in-flight dedupe (when flight is non-nil), ledger lookup (with
// corrupt-entry recovery), cancellation before and after execution, panic
// isolation, the artifact hook, and the ledger write. It is the single
// execution path shared by the batch Run and the service Pool; hooks and
// progress counters stay with the callers. onStart, when non-nil, fires
// exactly when real execution begins — never for a ledger hit, an
// in-flight duplicate or a pre-start cancellation.
func executeJob[T any](jctx context.Context, j Job[T], opt Options, flight *inflight[T], onStart func()) Result[T] {
	r := Result[T]{Name: j.Name, Key: j.Key}
	// A job whose context is already done never starts — and is reported
	// as cancelled even if a ledger entry exists, so callers observe one
	// consistent outcome for cancellation regardless of cache state.
	if err := jctx.Err(); err != nil {
		r.Err = err
		return r
	}
	if j.Key != "" && flight != nil {
		c, lead := flight.join(jctx, j.Key)
		if !lead {
			// A follower's own cancellation wins over the leader's answer.
			if r.Err = jctx.Err(); r.Err == nil {
				r.Value, r.Cached = c.value, true
			}
			return r
		}
		defer func() { flight.finish(j.Key, c, r) }()
	}
	if j.Key != "" && opt.Ledger != nil {
		hit, err := opt.Ledger.Get(j.Key, &r.Value)
		if err != nil {
			// Recovered (corrupt entry quarantined by the ledger): log and
			// fall through to a fresh execution.
			opt.logf("sched: %v", err)
		}
		if hit {
			r.Cached = true
			return r
		}
	}
	if onStart != nil {
		onStart()
	}
	t0 := time.Now()
	func() {
		defer func() {
			if p := recover(); p != nil {
				r.Err = &PanicError{Value: p, Stack: debug.Stack()}
				opt.logf("sched: job %s panicked: %v\n%s", j.Name, p, r.Err.(*PanicError).Stack)
			}
		}()
		if j.RunCtx != nil {
			r.Value, r.Err = j.RunCtx(jctx)
		} else {
			r.Value, r.Err = j.Run()
		}
	}()
	// A run that raced with cancellation reports the cancellation: the
	// ledger must never record a cancelled job as complete, and callers
	// must never observe a "done" result for a session they cancelled.
	if r.Err == nil {
		if err := jctx.Err(); err != nil {
			r.Err = err
		}
	}
	if r.Err == nil && j.Artifacts != nil && opt.ArtifactDir != "" {
		if aerr := j.Artifacts(opt.ArtifactDir); aerr != nil {
			r.Err = fmt.Errorf("artifacts: %w", aerr)
		}
	}
	r.Elapsed = time.Since(t0)
	if r.Err == nil && j.Key != "" && opt.Ledger != nil {
		// Best effort: a ledger write failure only costs a
		// future cache hit, never the computed result.
		_ = opt.Ledger.Put(j.Key, j.Name, r.Value)
	}
	return r
}

// Run executes jobs on a worker pool and returns one Result per job, in
// input order regardless of completion order. Jobs sharing a key execute
// once; the later duplicates copy the first one's result. A job failure
// does not stop the others — callers decide by inspecting Result.Err (see
// FirstErr).
func Run[T any](jobs []Job[T], opt Options) []Result[T] {
	return RunContext(context.Background(), jobs, opt)
}

// RunContext is Run under a context: jobs that have not started when ctx
// is cancelled finish immediately with ctx's error, and running jobs that
// consult their context (RunCtx) observe the cancellation mid-execution.
// Cancelled jobs are never recorded in the ledger.
func RunContext[T any](ctx context.Context, jobs []Job[T], opt Options) []Result[T] {
	results := make([]Result[T], len(jobs))

	// Dedup by key: the first job with a key is the primary; later jobs
	// with the same key copy its result after the pool drains.
	primaries := make([]int, 0, len(jobs))
	dupOf := map[int]int{}
	firstByKey := map[string]int{}
	for i, j := range jobs {
		if j.Key != "" {
			if p, ok := firstByKey[j.Key]; ok {
				dupOf[i] = p
				continue
			}
			firstByKey[j.Key] = i
		}
		primaries = append(primaries, i)
	}

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(primaries) {
		workers = len(primaries)
	}

	var (
		mu       sync.Mutex // serializes hooks and the progress counters
		started  int
		finished int
	)
	total := len(primaries)
	emit := func(hook func(Event), ev Event) {
		if hook == nil {
			return
		}
		hook(ev)
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				j := jobs[i]
				// No in-flight table: the dedup pass above already
				// leaves one job per key.
				r := executeJob(ctx, j, opt, nil, func() {
					mu.Lock()
					started++
					emit(opt.Hooks.Started, Event{Seq: started, Total: total, Name: j.Name, Key: j.Key})
					mu.Unlock()
				})
				results[i] = r
				mu.Lock()
				finished++
				if r.Cached {
					emit(opt.Hooks.Cached, Event{Seq: finished, Total: total, Name: j.Name, Key: j.Key})
				} else {
					emit(opt.Hooks.Finished, Event{Seq: finished, Total: total, Name: j.Name, Key: j.Key, Elapsed: r.Elapsed, Err: r.Err})
				}
				mu.Unlock()
			}
		}()
	}
	for _, i := range primaries {
		idx <- i
	}
	close(idx)
	wg.Wait()

	for i, p := range dupOf {
		results[i] = results[p]
		results[i].Name = jobs[i].Name
	}
	return results
}

// FirstErr returns the first failure in input order, wrapped with the
// failing job's name, or nil.
func FirstErr[T any](results []Result[T]) error {
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("%s: %w", r.Name, r.Err)
		}
	}
	return nil
}

// KeyOf derives a content-hash key from the given parts: each part is
// JSON-encoded (deterministically — Go sorts map keys) into a SHA-256 hash.
// Parts must be JSON-marshalable plain data; passing anything else is a
// programming error and panics.
func KeyOf(parts ...any) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, p := range parts {
		if err := enc.Encode(p); err != nil {
			panic(fmt.Sprintf("sched: unhashable key part %T: %v", p, err))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ConsoleHooks returns hooks that print one progress line per job state
// change to w — the live progress display of the cmd/ front ends.
func ConsoleHooks(w io.Writer) Hooks {
	return Hooks{
		Started: func(ev Event) {
			fmt.Fprintf(w, "[%d/%d] run    %s\n", ev.Seq, ev.Total, ev.Name)
		},
		Finished: func(ev Event) {
			if ev.Err != nil {
				fmt.Fprintf(w, "[%d/%d] FAIL   %s: %v\n", ev.Seq, ev.Total, ev.Name, ev.Err)
				return
			}
			fmt.Fprintf(w, "[%d/%d] done   %s (%.2fs)\n", ev.Seq, ev.Total, ev.Name, ev.Elapsed.Seconds())
		},
		Cached: func(ev Event) {
			fmt.Fprintf(w, "[%d/%d] cached %s\n", ev.Seq, ev.Total, ev.Name)
		},
	}
}
