package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/workload"
)

// A traced session's own time, the part of its span no child span covers,
// may be at most spanTolerance of the span or spanSlack, whichever is
// larger. The slack is one Go scheduler time slice: a worker preempted, or
// held by a garbage-collection pause, between two calls leaves a gap no
// span can own. Over all sessions, the uncovered share must stay below
// totalTolerance, which no such pause can reach but a call missing from
// the spans would.
const (
	spanTolerance  = 0.05
	spanSlack      = 10 * time.Millisecond
	totalTolerance = 0.01
)

// maxReported bounds the failed checks listed in the output.
const maxReported = 20

type analysis struct {
	acc       accounting
	latencies []float64
	p90       float64
	p90Beyond int
	speedup   float64
	digest    string
	layers    map[string]float64
	errs      []string
}

func (a *analysis) fail(format string, args ...any) {
	if len(a.errs) == maxReported {
		a.errs = append(a.errs, "further failed checks not listed")
	}
	if len(a.errs) < maxReported {
		a.errs = append(a.errs, fmt.Sprintf(format, args...))
	}
}

// analyze checks the runs against each other and derives every metric
// except the set-up, wall-time and memory figures.
func analyze(p *plan, sv []served, tr []traced, lfetch map[string]int) analysis {
	a := analysis{layers: map[string]float64{}}
	a.checkResults(p, sv, tr)
	a.endToEnd(p, tr)
	a.perLayer(p, sv, tr, lfetch)
	return a
}

// checkResults verifies every served session against the direct drive and
// every ledger answer against the execution it repeats.
func (a *analysis) checkResults(p *plan, sv []served, tr []traced) {
	if len(sv) < p.Core {
		a.fail("only %d of the %d core sessions attempted", len(sv), p.Core)
	}
	executed := map[string][]byte{}
	for _, s := range sv {
		if s.Outcome == outcomeDone && !s.Cached {
			executed[s.Key] = s.Result
		}
	}
	tracedRuns := map[string][]byte{}
	for _, t := range tr {
		if t.Err == "" && !t.Cached {
			tracedRuns[t.ID] = t.Result
		}
	}
	for i, s := range sv {
		a.acc.record(s.Outcome)
		t := tr[i]
		if t.Err != "" {
			a.fail("session %d: direct drive: %s", i, t.Err)
		}
		if s.Outcome != outcomeDone {
			a.fail("session %d: %s", i, s.Err)
			continue
		}
		a.latencies = append(a.latencies, s.LatencyMS)
		if t.Err != "" {
			continue
		}
		if !bytes.Equal(s.Result, t.Result) {
			a.fail("session %d: served result differs from the direct drive:\n  served %s\n  direct %s", i, s.Result, t.Result)
		}
		if s.Cached && !bytes.Equal(s.Result, executed[s.Key]) {
			a.fail("session %d: ledger answer differs from the executed session", i)
		}
		if t.Cached && !bytes.Equal(t.Result, tracedRuns[t.ID]) {
			a.fail("session %d: direct-drive ledger answer differs from its execution", i)
		}
		for k, sum := range s.Artifacts {
			if t.Artifacts[k] != sum {
				a.fail("session %d: served %s artifact (%d bytes) differs from the direct render (%d bytes)", i, k, sum.Bytes, t.Artifacts[k].Bytes)
			}
		}
	}
	if !a.acc.balanced() {
		a.fail("accounting: %+v", a.acc)
	}
	var sessTotal, childTotal time.Duration
	for i, t := range tr {
		var sess, children time.Duration
		for _, s := range t.Spans {
			if s.Name == spanSession {
				sess = s.dur()
			} else {
				children += s.dur()
			}
		}
		if gap := sess - children; gap > max(time.Duration(spanTolerance*float64(sess)), spanSlack) {
			a.fail("session %d: spans cover %v of its %v", i, children, sess)
		}
		sessTotal += sess
		childTotal += children
	}
	if gap := sessTotal - childTotal; float64(gap) > totalTolerance*float64(sessTotal) {
		a.fail("spans cover %v of the sessions' %v", childTotal, sessTotal)
	}
}

// endToEnd derives the latency percentiles, the speedup and the digest.
func (a *analysis) endToEnd(p *plan, tr []traced) {
	var ok bool
	a.p90, a.p90Beyond, ok = percentile(a.latencies, 0.9)
	if !ok {
		a.fail("p90 rests on %d samples beyond it, want at least %d", a.p90Beyond, minBeyond)
	}
	core := min(p.Core, len(tr))
	var results [][]byte
	for _, t := range tr[:core] {
		results = append(results, t.Result)
	}
	a.digest = digestOf(results)

	off, cobra, err := pairs(p, tr[:core], func(s string) bool { return cobraStrategies[s] })
	if err != nil {
		a.fail("cobra_speedup: %v", err)
		return
	}
	if a.speedup, err = geomeanRatio(off, cobra); err != nil {
		a.fail("cobra_speedup: %v", err)
	}
}

// pairs returns the simulated cycles of every session of tr whose strategy
// matches, each with its group's off twin.
func pairs(p *plan, tr []traced, match func(string) bool) (off, other []float64, err error) {
	twin := map[int]float64{}
	for i, t := range tr {
		if p.Sessions[i].Req.Strategy == "off" {
			twin[p.Sessions[i].Group] = float64(t.Meas.Cycles)
		}
	}
	for i, t := range tr {
		if !match(p.Sessions[i].Req.Strategy) {
			continue
		}
		c, found := twin[p.Sessions[i].Group]
		if !found {
			return nil, nil, fmt.Errorf("session %d (%s) has no off twin", i, p.Sessions[i].Req.Strategy)
		}
		off = append(off, c)
		other = append(other, float64(t.Meas.Cycles))
	}
	return off, other, nil
}

// perLayer derives the per-layer metrics: host times from the spans and
// the client, simulated counts from the core's results.
func (a *analysis) perLayer(p *plan, sv []served, tr []traced, lfetch map[string]int) {
	L := a.layers
	var submit, overhead, poll, queue []float64
	for _, s := range sv {
		submit = append(submit, s.SubmitMS)
		if s.Outcome != outcomeDone {
			continue
		}
		overhead = append(overhead, s.LatencyMS-s.ServerMS)
		poll = append(poll, s.PollMS)
		if s.QueueMS >= 0 {
			queue = append(queue, s.QueueMS)
		}
	}
	L["serve.submit_ms_p50"] = median(submit)
	L["serve.overhead_ms_p50"] = median(overhead)
	L["serve.refused"] = float64(a.acc.Refused)
	L["sched.queue_wait_ms_p50"] = median(queue)
	L["bench.session_samples"] = float64(len(a.latencies))
	L["bench.poll_delay_ms_p50"] = median(poll)

	// Host time per span name, over every traced session.
	durs := map[string][]float64{}
	total := map[string]float64{}
	var hits, builds, cloneHits int
	var traceNS float64
	for _, t := range tr {
		if t.Cached {
			hits++
		}
		traceNS += float64(t.TraceNS)
		for _, s := range t.Spans {
			d, name := ms(s.dur()), s.Name
			total[name] += d
			if name == spanBuild {
				builds++
				name = "compile"
				if s.Note == "hit" {
					cloneHits++
					name = "clone"
				}
			}
			durs[name] = append(durs[name], d)
		}
	}
	children := 0.0
	for name, v := range total {
		if name != spanSession {
			children += v
		}
	}
	L["sched.ledger_get_ms_p50"] = median(durs[spanLedgerGet])
	L["sched.ledger_put_ms_p50"] = median(durs[spanLedgerPut])
	L["sched.ledger_hit_ratio"] = float64(hits) / float64(len(tr))
	L["workload.compile_ms_p50"] = median(durs["compile"])
	L["workload.clone_ms_p50"] = median(durs["clone"])
	L["workload.cache_hit_ratio"] = ratio(float64(cloneHits), float64(builds))
	L["workload.setup_ms_p50"] = median(durs[spanSetup])
	L["workload.verify_ms_p50"] = median(durs[spanVerify])
	L["machine.run_ms_p50"] = median(durs[spanRun])
	L["obs.artifact_ms_p50"] = median(durs[spanArtifact])
	L["bench.unaccounted_pct"] = 100 * (total[spanSession] - children) / total[spanSession]
	L["bench.trace_overhead_pct"] = 100 * ms(time.Duration(traceNS)) / total[spanSession]

	// Host cost per simulated instruction, over executed sessions. The
	// monitoring and COBRA overheads compare each session with the off run
	// of the same program, since host cost per instruction differs far
	// more between programs than between strategies.
	instrs := map[string]int64{}
	offNS := map[string]float64{} // host ns per instruction of the off run, per shape
	var offInstrs, offRunNS, allNS, allAccesses float64
	for _, t := range tr {
		if t.Cached || t.Err != "" {
			continue
		}
		instrs[t.ID] = t.Instrs
		allNS += float64(t.RunNS)
		allAccesses += float64(accesses(t.Meas))
		if t.Strategy == "off" && t.Instrs > 0 {
			offNS[t.Shape] = float64(t.RunNS) / float64(t.Instrs)
			offInstrs += float64(t.Instrs)
			offRunNS += float64(t.RunNS)
		}
	}
	overheadPct := func(match func(string) bool) float64 {
		var ns, base float64
		for _, t := range tr {
			if b, ok := offNS[t.Shape]; ok && !t.Cached && t.Err == "" && match(t.Strategy) {
				ns += float64(t.RunNS)
				base += b * float64(t.Instrs)
			}
		}
		if base == 0 {
			return 0
		}
		return 100 * (ns/base - 1)
	}
	L["machine.sim_mips"] = ratio(offInstrs, offRunNS/1e3)
	L["mem.ns_per_access"] = ratio(allNS, allAccesses)
	L["cobra.monitor_host_overhead_pct"] = overheadPct(func(s string) bool { return s == "monitor" })
	L["cobra.host_overhead_pct"] = overheadPct(func(s string) bool { return cobraStrategies[s] })

	// Simulated counts over the core: identical on every run at a seed.
	core := tr[:min(p.Core, len(tr))]
	var sum workload.Measurement
	var simInstrs int64
	var artifactBytes int
	shapes := map[string]bool{}
	staticLfetch := 0
	for _, t := range core {
		m := t.Meas
		sum.Cycles += m.Cycles
		sum.Mem.Add(m.Mem)
		c := m.Cobra
		sum.Cobra.SamplesSeen += c.SamplesSeen
		sum.Cobra.OptimizerPasses += c.OptimizerPasses
		sum.Cobra.Triggers += c.Triggers
		sum.Cobra.PatchesApplied += c.PatchesApplied
		sum.Cobra.PatchesRolledBack += c.PatchesRolledBack
		sum.Cobra.VariantSwitches += c.VariantSwitches
		n, found := instrs[t.ID]
		if !found {
			a.fail("no executed run of core session %s", t.ID)
		}
		simInstrs += n
		for _, s := range t.Artifacts {
			artifactBytes += s.Bytes
		}
		if !shapes[t.Shape] {
			shapes[t.Shape] = true
			staticLfetch += lfetch[t.Shape]
		}
	}
	L["compiler.static_lfetch"] = float64(staticLfetch)
	L["machine.sim_instrs"] = float64(simInstrs)
	L["machine.sim_cycles"] = float64(sum.Cycles)
	L["mem.accesses"] = float64(accesses(sum))
	L["mem.l3_misses"] = float64(sum.Mem.L3Misses)
	L["mem.coherent_misses"] = float64(sum.Mem.CoherentMisses)
	L["mem.bus_transactions"] = float64(sum.Mem.BusMemory)
	L["mem.demand_latency_avg"] = ratio(float64(sum.Mem.DemandLatencyTotal), float64(sum.Mem.DemandAccesses))
	L["perfmon.samples"] = float64(sum.Cobra.SamplesSeen)
	L["cobra.optimizer_passes"] = float64(sum.Cobra.OptimizerPasses)
	L["cobra.triggers"] = float64(sum.Cobra.Triggers)
	L["cobra.patches_applied"] = float64(sum.Cobra.PatchesApplied)
	L["cobra.patches_rolled_back"] = float64(sum.Cobra.PatchesRolledBack)
	L["cobra.patch_keep_ratio"] = ratio(float64(sum.Cobra.PatchesApplied-sum.Cobra.PatchesRolledBack), float64(sum.Cobra.PatchesApplied))
	L["cobra.variant_switches"] = float64(sum.Cobra.VariantSwitches)
	L["obs.artifact_bytes"] = float64(artifactBytes)
	if offC, monC, err := pairs(p, core, func(s string) bool { return s == "monitor" }); err != nil {
		a.fail("monitor pairs: %v", err)
	} else if len(monC) > 0 {
		g, err := geomeanRatio(monC, offC)
		if err != nil {
			a.fail("monitor overhead: %v", err)
		}
		L["cobra.monitor_overhead_pct"] = 100 * (g - 1)
	} else {
		L["cobra.monitor_overhead_pct"] = 0
	}
}

// accesses counts memory-system requests: demand loads and stores plus
// prefetches.
func accesses(m workload.Measurement) int64 {
	return m.Mem.Loads + m.Mem.Stores + m.Mem.Prefetches
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
