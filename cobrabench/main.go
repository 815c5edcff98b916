// Command cobrabench is the repository's end-to-end benchmark: it starts
// an in-process cobrad, drives a seeded list of optimization sessions
// through its HTTP API as a closed loop of clients, replays the same list
// with spans around every public call a session makes, checks that every
// result is correct, and prints the metrics as one JSON line. See
// README.md for the workloads, the metrics and how to run it.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/serve"
)

// workDir holds the ledgers, spans and run log, relative to the checkout
// root the benchmark runs from; run.sh builds the binary there too.
const workDir = ".bench_build"

// setupReps is how many times a run sets up a server, setupRepsAfter of
// them after the traced run; setup_s is the median.
const (
	setupReps      = 9
	setupRepsAfter = 4
)

// maxClients is the closed loop's client count, lowered to the CPU count
// on smaller hosts so clients never outnumber processors.
const maxClients = 2

// warmup is the fixed list of sessions every set-up runs before timing
// starts: DAXPY and the light NPB kernels, small and on one thread, on
// both machines. (The irregular kernels take 0.1-0.3 s even on one
// thread.) No generator submits a one-thread session, so the timed phase
// never finds one of them in the ledger or the build cache.
var warmup = func() []serve.SubmitRequest {
	tiny := false
	var reqs []serve.SubmitRequest
	for _, w := range []string{"daxpy", "cg", "is", "ep", "ft", "mg"} {
		for _, m := range []string{"smp", "numa"} {
			s := serve.Spec{Workload: w, Threads: 1, Machine: m, Strategy: "adaptive"}
			if w == "daxpy" {
				s.DaxpyWS, s.DaxpyReps = 32<<10, 4
			} else {
				s.ClassS = &tiny
			}
			reqs = append(reqs, serve.SubmitRequest{Spec: s})
		}
	}
	return reqs
}()

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workloadName := flag.String("workload", "", "workload: paper-mix, irregular-numa or service-churn")
	seed := flag.Int64("seed", 1, "seed of the generated session list")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	traceFlag := flag.Int("trace", 0, "0 prints the end-to-end metrics, 1 the per-layer metrics")
	cmp := flag.Bool("compare", false, "compare two run logs given as arguments (baseline, candidate) instead of running")
	flag.Parse()
	if *cmp {
		if flag.NArg() != 2 {
			fatalf("-compare takes two run logs")
		}
		if err := compare(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if *seconds < 1 {
		fatalf("-seconds must be at least 1")
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	rec, err := run(*workloadName, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1)
	if err != nil {
		fatalf("%v", err)
	}
	rec.Fingerprint, rec.Trace = hostFingerprint(), *traceFlag
	fp := rec.Fingerprint
	fmt.Printf("host nproc=%d gomaxprocs=%d cpu=%q numa_nodes=%d go=%s commit=%s\n",
		fp.NProc, fp.GOMAXPROCS, fp.CPUModel, fp.NUMANodes, fp.GoVersion, fp.Commit)
	if err := appendRecord(filepath.Join(workDir, "runs.jsonl"), rec); err != nil {
		fatalf("run log: %v", err)
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cobrabench: "+format+"\n", args...)
	os.Exit(1)
}

// setUp starts a server with a fresh ledger, generates the workload's
// plan and runs the warm-up sessions through the server. It returns the
// server, the plan and the set-up time in seconds. Like a session's
// latency, a set-up ends when the server finished the last warm-up
// session, not when the polling client saw it.
func setUp(workloadName string, seed int64) (*server, *plan, float64, error) {
	t0 := time.Now()
	srv, err := startServer(workDir)
	if err != nil {
		return nil, nil, 0, err
	}
	p, err := generate(workloadName, seed)
	var poll float64
	cl := newClient(srv.url)
	for _, req := range warmup {
		if err != nil {
			break
		}
		var s served
		if s, err = cl.runSession(req); err == nil && s.Outcome != outcomeDone {
			err = fmt.Errorf("warm-up session %s: %s", specID(req.Spec), s.Err)
		}
		poll += s.PollMS
	}
	cl.close()
	if err != nil {
		srv.stop()
		return nil, nil, 0, err
	}
	return srv, p, time.Since(t0).Seconds() - poll/1e3, nil
}

// run measures one workload and returns its record for the run log.
func run(workloadName string, seed int64, d time.Duration, trace bool) (record, error) {
	clients := min(maxClients, runtime.NumCPU())

	// Set-up runs setupReps times: before the timed phase, where the last
	// server serves it, and again after the traced run, so that a burst of
	// host load during one part of a run does not move the median.
	var setups []float64
	var srv *server
	var p *plan
	for i := 0; i < setupReps-setupRepsAfter; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return record{}, err
			}
		}
		var secs float64
		var err error
		if srv, p, secs, err = setUp(workloadName, seed); err != nil {
			return record{}, err
		}
		setups = append(setups, secs)
	}

	sv, wall, err := closedLoop(srv.url, p, clients, d)
	if err != nil {
		srv.stop()
		return record{}, err
	}
	rss, err := peakRSSMiB()
	if err != nil {
		srv.stop()
		return record{}, err
	}
	if err := srv.stop(); err != nil {
		return record{}, err
	}

	tr, lfetch, err := replay(p, len(sv), clients, workDir)
	if err != nil {
		return record{}, err
	}
	if err := writeSpans(filepath.Join(workDir, "spans-"+workloadName+".jsonl"), tr); err != nil {
		return record{}, err
	}
	for i := 0; i < setupRepsAfter; i++ {
		s, _, secs, err := setUp(workloadName, seed)
		if err == nil {
			err = s.stop()
		}
		if err != nil {
			return record{}, err
		}
		setups = append(setups, secs)
	}

	a := analyze(p, sv, tr, lfetch)
	fmt.Printf("workload %s seed %d: attempted=%d completed=%d failed=%d refused=%d cancelled=%d core=%d samples=%d p90_beyond=%d\n",
		workloadName, seed, a.acc.Attempted, a.acc.Completed, a.acc.Failed, a.acc.Refused, a.acc.Cancelled, p.Core, len(a.latencies), a.p90Beyond)
	fmt.Printf("digest %s\n", a.digest)
	for _, e := range a.errs {
		fmt.Printf("check failed: %s\n", e)
	}

	rec := record{Workload: workloadName, Seed: seed, Digest: a.digest, FailedChecks: a.errs}
	res := result{Correct: len(a.errs) == 0, Attempted: a.acc.Attempted, Failed: a.acc.unsuccessful(), Metrics: map[string]metricValue{}}
	put := func(name string, v float64) {
		res.Metrics[name] = metricValue{Value: v, Unit: units[name]}
	}
	if !trace {
		put("setup_s", median(setups))
		put("sessions_per_s", float64(a.acc.Completed)/wall.Seconds())
		put("session_ms_p50", median(a.latencies))
		put("session_ms_p90", a.p90)
		put("completed_frac", float64(a.acc.Completed)/float64(a.acc.Attempted))
		put("cobra_speedup", a.speedup)
		put("peak_rss_mb", rss)
		rec.Result = res
		return rec, nil
	}
	for name, v := range a.layers {
		put(name, v)
	}
	rec.Result = res
	return rec, nil
}

// units names the unit of every metric the benchmark prints.
var units = map[string]string{
	"setup_s":        "s",
	"sessions_per_s": "1/s",
	"session_ms_p50": "ms",
	"session_ms_p90": "ms",
	"completed_frac": "ratio",
	"cobra_speedup":  "ratio",
	"peak_rss_mb":    "MiB",

	"serve.submit_ms_p50":   "ms",
	"serve.overhead_ms_p50": "ms",
	"serve.refused":         "count",

	"sched.queue_wait_ms_p50": "ms",
	"sched.ledger_get_ms_p50": "ms",
	"sched.ledger_put_ms_p50": "ms",
	"sched.ledger_hit_ratio":  "ratio",

	"workload.compile_ms_p50":         "ms",
	"workload.clone_ms_p50":           "ms",
	"workload.cache_hit_ratio":        "ratio",
	"workload.setup_ms_p50":           "ms",
	"workload.verify_ms_p50":          "ms",
	"compiler.static_lfetch":          "count",
	"machine.run_ms_p50":              "ms",
	"machine.sim_instrs":              "count",
	"machine.sim_cycles":              "count",
	"machine.sim_mips":                "1/us",
	"mem.accesses":                    "count",
	"mem.l3_misses":                   "count",
	"mem.coherent_misses":             "count",
	"mem.bus_transactions":            "count",
	"mem.demand_latency_avg":          "cycles",
	"mem.ns_per_access":               "ns",
	"perfmon.samples":                 "count",
	"cobra.monitor_overhead_pct":      "%",
	"cobra.monitor_host_overhead_pct": "%",
	"cobra.optimizer_passes":          "count",
	"cobra.triggers":                  "count",
	"cobra.patches_applied":           "count",
	"cobra.patches_rolled_back":       "count",
	"cobra.patch_keep_ratio":          "ratio",
	"cobra.variant_switches":          "count",
	"cobra.host_overhead_pct":         "%",
	"obs.artifact_ms_p50":             "ms",
	"obs.artifact_bytes":              "bytes",
	"bench.trace_overhead_pct":        "%",
	"bench.unaccounted_pct":           "%",
	"bench.session_samples":           "count",
	"bench.poll_delay_ms_p50":         "ms",
}

// digestOf hashes the core's canonical results in plan order.
func digestOf(results [][]byte) string {
	h := sha256.New()
	for _, r := range results {
		h.Write(r)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
