package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/workload"
)

// Span names, one per public call a cobrad session makes, in order. The
// traced run wraps each call from the outside; nothing inside the program
// is instrumented. The benchmark's own work inside a session has spans of
// its own ("bench."), so that the children of a session span account for
// all of it.
const (
	spanSession   = "session"
	spanSpec      = "serve.spec"       // observer, Spec.Normalize, Validate, Key
	spanLedgerGet = "sched.ledger_get" // Ledger.Get
	spanBuildLock = "bench.build_lock" // taking and releasing the benchmark's build lock; see tracer
	spanBuild     = "workload.build"   // BuildCache.Build, via Spec.Instantiate
	spanSetup     = "workload.setup"   // Workload.Setup
	spanRun       = "machine.run"      // Workload.Run: the simulation and the COBRA loop
	spanVerify    = "workload.verify"  // Workload.Verify
	spanMeasure   = "workload.measure" // the counters Instance.Measure reads
	spanLedgerPut = "sched.ledger_put" // Ledger.Put
	spanArtifact  = "obs.artifact"     // artifact render
	// The benchmark's static count of a newly seen program, taken before
	// the run can patch it.
	spanStatic = "bench.static_count"
)

// span is one timed call. Times are offsets from the start of the traced
// run; every span but the session span has the session span as parent.
type span struct {
	Session int    `json:"session"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// Note is "miss" or "hit" on a workload.build span: whether the
	// build cache compiled or cloned.
	Note string `json:"note,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// traced is what the direct drive produced for one session.
type traced struct {
	ID       string // the submitted spec
	Shape    string // the submitted spec without its strategy
	Result   []byte // canonical Measurement JSON
	Meas     workload.Measurement
	Cached   bool
	Strategy string
	Instrs   int64 // instructions retired; 0 for a ledger hit
	RunNS    int64 // host time of Workload.Run
	// TraceNS is the host time the spans took to record themselves: the
	// clock reads and bookkeeping around each call.
	TraceNS   int64
	Artifacts map[string]artifactSum
	Spans     []span
	Err       string
}

// tracer drives sessions directly through the same public calls the
// server's session job makes, with a ledger and build cache of its own.
type tracer struct {
	start  time.Time
	ledger *sched.Ledger
	cache  *workload.BuildCache
	// buildMu serializes builds so that the BuildCache.Stats delta around
	// one build tells a compile from a clone. Taking it and releasing it
	// are spans of their own: the wait, and the unlock that may hand the
	// processor to the waiting worker, never hide in another layer's time
	// or in the gaps between spans.
	buildMu sync.Mutex

	mu     sync.Mutex
	lfetch map[string]int // static lfetch count per program shape
}

func (t *tracer) now() int64 { return int64(time.Since(t.start)) }

// replay runs the first n sessions of p with the given number of workers,
// in plan order. It returns one record per session and the static lfetch
// count per program shape.
func replay(p *plan, n, workers int, workDir string) ([]traced, map[string]int, error) {
	dir, err := os.MkdirTemp(workDir, "ledger-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	led, err := sched.OpenLedger(dir)
	if err != nil {
		return nil, nil, err
	}
	t := &tracer{start: time.Now(), ledger: led, cache: workload.NewBuildCache(), lfetch: map[string]int{}}
	out := make([]traced, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				out[i] = t.traceOne(i, p.Sessions[i].Req)
			}
		}()
	}
	wg.Wait()
	return out, t.lfetch, nil
}

// observer mirrors the observer a cobrad session builds for its
// requested artifacts.
func observer(a serve.ArtifactConfig) *obs.Observer {
	if !a.Trace && !a.Metrics && !a.Decisions {
		return nil
	}
	return obs.New(obs.Config{Trace: a.Trace, SampleEvents: a.TraceSamples, Metrics: a.Metrics, Decisions: a.Decisions})
}

// traceOne runs one session the way the server's session job does:
// normalize, validate and key the spec, consult the ledger, build from
// the cache, set up, run, verify, record in the ledger, render artifacts.
func (t *tracer) traceOne(i int, req serve.SubmitRequest) traced {
	var out traced
	shape := req.Spec
	shape.Strategy = ""
	out.Shape = specID(shape)
	out.ID = specID(req.Spec)
	out.Spans = make([]span, 0, 12)
	sessStart := t.now()
	timed := func(name string, fn func() error) error {
		enter := t.now()
		s := span{Session: i, Name: name, Parent: spanSession, StartNS: t.now()}
		err := fn()
		s.EndNS = t.now()
		out.Spans = append(out.Spans, s)
		out.TraceNS += s.StartNS - enter + t.now() - s.EndNS
		return err
	}
	fail := func(err error) traced {
		out.Err = err.Error()
		return out
	}

	spec := req.Spec
	var key string
	var o *obs.Observer
	if err := timed(spanSpec, func() error {
		o = observer(req.Artifacts)
		spec.Normalize()
		if err := spec.Validate(); err != nil {
			return err
		}
		var err error
		key, err = spec.Key()
		return err
	}); err != nil {
		return fail(err)
	}
	out.Strategy = spec.Strategy

	var m workload.Measurement
	var hit bool
	if err := timed(spanLedgerGet, func() error {
		var err error
		hit, err = t.ledger.Get(key, &m)
		return err
	}); err != nil {
		return fail(err)
	}
	var inst *workload.Instance
	if !hit {
		var misses0, misses1 int64
		timed(spanBuildLock, func() error {
			t.buildMu.Lock()
			_, misses0 = t.cache.Stats()
			return nil
		})
		err := timed(spanBuild, func() error {
			var err error
			inst, err = spec.Instantiate(t.cache, o)
			return err
		})
		build := len(out.Spans) - 1
		timed(spanBuildLock, func() error {
			_, misses1 = t.cache.Stats()
			t.buildMu.Unlock()
			return nil
		})
		if err != nil {
			return fail(err)
		}
		out.Spans[build].Note = "hit"
		if misses1 > misses0 {
			out.Spans[build].Note = "miss"
		}
		w, c := inst.W, inst.Ctx
		timed(spanStatic, func() error {
			t.mu.Lock()
			defer t.mu.Unlock()
			if _, counted := t.lfetch[out.Shape]; !counted {
				t.lfetch[out.Shape] = c.Res.StaticCounts(c.M.Image()).Lfetch
			}
			return nil
		})
		steps := []struct {
			name string
			fn   func(*workload.Ctx) error
		}{{spanSetup, w.Setup}, {spanRun, w.Run}, {spanVerify, w.Verify}}
		for _, st := range steps {
			if st.fn == nil {
				continue
			}
			if err := timed(st.name, func() error { return st.fn(c) }); err != nil {
				return fail(fmt.Errorf("%s %s: %w", w.Name, st.name, err))
			}
		}
		timed(spanMeasure, func() error {
			m = workload.Measurement{Name: w.Name, Threads: c.Threads, Cycles: c.RT.TotalCycles(), Mem: c.M.Domain().TotalStats()}
			if inst.Cobra != nil {
				m.Cobra = inst.Cobra.Stats()
			}
			return nil
		})
		if err := timed(spanLedgerPut, func() error { return t.ledger.Put(key, spec.Name(), m) }); err != nil {
			return fail(err)
		}
		if kinds := requested(req.Artifacts); len(kinds) > 0 {
			out.Artifacts = map[string]artifactSum{}
			err := timed(spanArtifact, func() error {
				for _, k := range kinds {
					var buf bytes.Buffer
					var err error
					switch k {
					case "metrics":
						err = o.Metrics().WriteJSON(&buf)
					case "decisions":
						err = o.Decisions().Explain(&buf)
					case "trace":
						err = o.Trace().WriteJSON(&buf)
					}
					if err != nil {
						return err
					}
					out.Artifacts[k] = sumOf(buf.Bytes())
				}
				return nil
			})
			if err != nil {
				return fail(err)
			}
		}
	}
	out.Spans = append(out.Spans, span{Session: i, Name: spanSession, StartNS: sessStart, EndNS: t.now()})

	// Bookkeeping outside the session span.
	out.Cached, out.Meas = hit, m
	var err error
	if out.Result, err = canonical(m); err != nil {
		return fail(err)
	}
	if inst != nil {
		c := inst.Ctx
		for cpu := 0; cpu < c.M.NumCPUs(); cpu++ {
			out.Instrs += c.M.CPU(cpu).InstRetired
		}
		for _, s := range out.Spans {
			if s.Name == spanRun {
				out.RunNS = s.EndNS - s.StartNS
			}
		}
	}
	return out
}

// writeSpans writes every span of the run as JSON lines, once, at the end.
func writeSpans(path string, ts []traced) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, t := range ts {
		for _, s := range t.Spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}
