package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/serve"
)

// A plan is the seeded list of session requests one workload submits, in
// submission order. Sessions of one group share a base spec: the group's
// "off" session is the twin every COBRA session of the group is compared
// against for cobra_speedup. The first Core sessions are always run, even
// past the deadline, so the result digest, cobra_speedup and the simulated
// per-layer counts cover the same sessions on every run at a seed.
type plan struct {
	Workload string
	Sessions []planned
	Core     int
	// Block is the length of the plan's blocks, runs of sessions that
	// each hold the workload's whole mix. A run stops only at a block's
	// end, so every run measures whole blocks; Core is a whole number of
	// them.
	Block int
}

type planned struct {
	Req   serve.SubmitRequest
	Group int
}

// workloads lists the generators by name, in the order BENCHMARK.json
// names them.
var workloads = []struct {
	name string
	gen  func(r *rand.Rand) *plan
}{
	{"paper-mix", genPaperMix},
	{"irregular-numa", genIrregularNUMA},
	{"service-churn", genServiceChurn},
}

// generate builds the plan of the named workload for seed.
func generate(workload string, seed int64) (*plan, error) {
	for _, w := range workloads {
		if w.name == workload {
			p := w.gen(rand.New(rand.NewSource(seed)))
			p.Workload = workload
			return p, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

// cobraStrategies are the optimizing strategies: every one of them is
// paired with an "off" twin. "monitor" samples without patching and is
// paired separately, for the monitoring-overhead figures.
var cobraStrategies = map[string]bool{
	"noprefetch": true, "excl": true, "adaptive": true, "bias": true,
	"multiversion": true, "causal": true, "layout": true,
}

// specID identifies a spec by its JSON encoding, which is what the server
// receives.
func specID(s serve.Spec) string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // a Spec holds only plain data
	}
	return string(b)
}

func (p *plan) add(group int, spec serve.Spec, strategy string, arts serve.ArtifactConfig) {
	spec.Strategy = strategy
	p.Sessions = append(p.Sessions, planned{Req: serve.SubmitRequest{Spec: spec, Artifacts: arts}, Group: group})
}

// Paper-mix and irregular-numa come in rounds of rows. A row holds one
// base spec per slot (a DAXPY class, an NPB kernel, an irregular kernel)
// in a fixed order, and across the rows of a round every slot cycles
// through all of its machine shapes (or placement scenarios) once,
// starting at a seeded offset. The seed thus changes which shapes run
// side by side but not the mix of a round. A round is the plan's block,
// so every run measures whole rounds, and runs at different seeds measure
// the same work. Later rounds repeat the shapes under another thread
// binding, so no spec repeats.

// roundAffinity is the thread-to-CPU binding of round r on a machine of
// cpus CPUs: the default binding in round 0, then the t-permutations of
// the CPUs in lexicographic order, the first being the default spelled
// out (a distinct spec with the default's binding).
func roundAffinity(r, threads, cpus int) []int {
	if r == 0 {
		return nil
	}
	var found []int
	n := r - 1
	var walk func(a []int, used uint64) bool
	walk = func(a []int, used uint64) bool {
		if len(a) == threads {
			if n == 0 {
				found = append([]int(nil), a...)
				return true
			}
			n--
			return false
		}
		for c := 0; c < cpus; c++ {
			if used&(1<<c) == 0 && walk(append(a, c), used|1<<c) {
				return true
			}
		}
		return false
	}
	if !walk(nil, 0) {
		panic(fmt.Sprintf("round %d exceeds the %d-thread bindings of %d CPUs", r, threads, cpus))
	}
	return found
}

// Paper-mix DAXPY working sets (both arrays) straddle the modelled L2
// (256 KiB) and the L3 (1.5 MiB SMP, 3 MiB Altix). Repetitions shrink as
// the working set grows, so every session streams about 4 MiB, as
// Figure 3's sweep (experiment.DefaultDaxpyScale) cuts repetitions for
// its largest working set.
var paperDaxpy = []struct {
	ws   int64
	reps int
}{
	{192 << 10, 20}, // inside L2
	{384 << 10, 10}, // past L2, inside the SMP L3
	{1 << 20, 4},    // inside the SMP L3
	{2 << 20, 2},    // past the SMP L3, inside the Altix L3
	{4 << 20, 1},    // past both L3s
}

// Class-S NPB kernels in paper-mix. bt, sp, lu, ft and mg take 1.6-2.3 s
// of host time per class-S session, so one of their triples would be a
// third of a run; they run at tiny class in service-churn instead.
var paperNPB = []string{"cg", "is", "ep"}

const paperRounds = 3

// paperShapes are the machine shapes every paper-mix slot cycles through.
var paperShapes = []struct {
	machine string
	threads int
}{{"smp", 2}, {"smp", 3}, {"smp", 4}, {"numa", 2}, {"numa", 3}, {"numa", 4}}

// genPaperMix reproduces the paper's evaluation as traffic: each base spec
// is submitted as an off/monitor/adaptive triple, and no spec repeats. The
// core is one round; two-thread NPB on smp has three bindings, so three
// rounds.
func genPaperMix(r *rand.Rand) *plan {
	var slots []serve.Spec
	for _, c := range paperDaxpy {
		slots = append(slots, serve.Spec{Workload: "daxpy", DaxpyWS: c.ws, DaxpyReps: c.reps})
	}
	for _, k := range paperNPB {
		slots = append(slots, serve.Spec{Workload: k})
	}
	offsets := make([]int, len(slots))
	for i := range offsets {
		offsets[i] = r.Intn(len(paperShapes))
	}
	p := &plan{Block: 3 * len(slots) * len(paperShapes)}
	group := 0
	for round := 0; round < paperRounds; round++ {
		for b := range paperShapes {
			for i, base := range slots {
				sh := paperShapes[(offsets[i]+b)%len(paperShapes)]
				base.Machine, base.Threads = sh.machine, sh.threads
				if base.Workload == "daxpy" {
					base.DaxpyWS += int64(round) * (8 << 10)
				} else {
					base.Affinity = roundAffinity(round, sh.threads, sh.threads)
				}
				for _, st := range []string{"off", "monitor", "adaptive"} {
					p.add(group, base, st, serve.ArtifactConfig{})
				}
				group++
			}
		}
		if round == 0 {
			p.Core = len(p.Sessions)
		}
	}
	return p
}

// Placement scenarios for irregular-numa: asymmetric NUMA shapes under
// every placement policy. The last two bound node 0 to 1 MiB, so binding
// to it spills to the nearest node.
var irregularScenarios = []serve.Spec{
	{Topology: []serve.NodeSpec{{CPUs: 1}, {CPUs: 3}}},
	{Topology: []serve.NodeSpec{{CPUs: 1}, {CPUs: 3}}, Placement: "interleave"},
	{Topology: []serve.NodeSpec{{CPUs: 3}, {CPUs: 1}}, Placement: "bind"},
	{Topology: []serve.NodeSpec{{CPUs: 3}, {CPUs: 1}}, Placement: "interleave"},
	{Topology: []serve.NodeSpec{{CPUs: 2}, {CPUs: 1}, {CPUs: 1}}, Placement: "bind", BindNode: 1},
	{Topology: []serve.NodeSpec{{CPUs: 1, MemMB: 1}, {CPUs: 2}, {CPUs: 1}}, Placement: "bind"},
	{Topology: []serve.NodeSpec{{CPUs: 1, MemMB: 1}, {CPUs: 2}, {CPUs: 1}}},
}

// irregularSlots are the kernels of one irregular-numa row, one slot
// each, at two, three and four threads. pointerchase runs the two: its
// work grows with its thread count, while hashjoin and spmv split fixed
// work.
var irregularSlots = []serve.Spec{
	{Workload: "pointerchase", Threads: 2},
	{Workload: "spmv", Threads: 3},
	{Workload: "hashjoin", Threads: 4},
}

var irregularStrategies = []string{"adaptive", "multiversion", "causal", "layout"}

const (
	// irregularRounds is bounded by the 13 bindings of two threads to the
	// scenarios' four CPUs.
	irregularRounds = 12
	irregularCore   = 3
)

// genIrregularNUMA runs the irregular kernels on asymmetric NUMA shapes
// under every placement policy, each base as an off/COBRA pair. The COBRA
// strategies take turns over the pairs from a seeded start.
func genIrregularNUMA(r *rand.Rand) *plan {
	offsets := r.Perm(len(irregularScenarios))
	first := r.Intn(len(irregularStrategies))
	p := &plan{Block: 2 * len(irregularSlots) * len(irregularScenarios)}
	group := 0
	for round := 0; round < irregularRounds; round++ {
		for b := range irregularScenarios {
			for i := range irregularSlots {
				base := irregularScenarios[(offsets[i]+b)%len(irregularScenarios)]
				base.Workload, base.Threads, base.Machine = irregularSlots[i].Workload, irregularSlots[i].Threads, "numa"
				base.Affinity = roundAffinity(round, base.Threads, 4)
				p.add(group, base, "off", serve.ArtifactConfig{})
				p.add(group, base, irregularStrategies[(first+group)%len(irregularStrategies)], serve.ArtifactConfig{})
				group++
			}
		}
		if round == irregularCore-1 {
			p.Core = len(p.Sessions)
		}
	}
	return p
}

// service-churn is sweep traffic. The repository's sweep commands submit
// their cells one compiled program at a time: experiment.RunNPBSched runs
// every NPB kernel under three strategies (the prefetch baseline,
// noprefetch and prefetch.excl) from one build, and with -artifacts every
// cell of the sweep writes its trace, metrics and decisions. A churn
// sweep does the same: one program shape, submitted as off and then two
// other strategies, and either every session of it asks for all three
// artifacts or none does. cobra-npb draws Figures 5, 6 and 7 of a panel
// from one sweep, so regenerating them one at a time with -incremental
// asks for that sweep three times, and the ledger answers the last two:
// every NPB sweep here is asked again in each of the next two blocks.
// The rest of the mix has no source in the repository; README.md lists
// those shares as assumptions.

// churnStrategies are the eight strategies besides off. A seeded order of
// them is walked two per sweep, so each is submitted equally often.
var churnStrategies = []string{"monitor", "noprefetch", "excl", "adaptive", "bias", "multiversion", "causal", "layout"}

// Tiny NPB kernels in service-churn. bt, sp and lu take 80-200 ms a
// session even at tiny class, the others 1-11 ms; see churnHeavyEvery.
var (
	churnLight = []string{"ft", "mg", "cg", "ep", "is"}
	churnHeavy = []string{"bt", "sp", "lu"}
)

const (
	churnSessions = 9000
	churnCore     = 594
	// A block is six sweeps in this order: one NPB sweep on a new shape,
	// three DAXPY sweeps on new shapes, and the NPB sweeps of the two
	// blocks before, asked again. Blocks 0 and 1 put a
	// DAXPY sweep where there is no earlier NPB sweep to ask again.
	churnSweeps = 6
	churnBlock  = 3 * churnSweeps
	// The new NPB sweep of the middle block of every churnHeavyEvery is a
	// heavy kernel, the three in turn, so every run of a given length
	// holds the same heavy sessions and the core holds one.
	churnHeavyEvery = 32
)

// npbShapes lists every shape of the given NPB kernels at tiny class on
// smp and numa at two to four threads, under every binding of the threads
// to the machine's CPUs, in seeded order. A new binding makes a new
// session key, but the build cache still clones the program compiled for
// the same kernel, machine and thread count.
func npbShapes(r *rand.Rand, kernels []string) []serve.Spec {
	tiny := false
	var out []serve.Spec
	for _, k := range kernels {
		for _, m := range []string{"smp", "numa"} {
			for t := 2; t <= 4; t++ {
				// The t! bindings, and the default binding left unspelled,
				// which is a key of its own.
				bindings := 1
				for n := 2; n <= t; n++ {
					bindings *= n
				}
				for b := 0; b <= bindings; b++ {
					out = append(out, serve.Spec{Workload: k, Machine: m, Threads: t, ClassS: &tiny, Affinity: roundAffinity(b, t, t)})
				}
			}
		}
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// genServiceChurn emits thousands of short sessions in sweeps of small
// DAXPY and tiny NPB programs across machine × threads × every strategy.
// Every new sweep has a shape not asked before, so the share of ledger
// answers and compiles does not drift as a run goes on: DAXPY working
// sets are drawn to the element pair (16 bytes) from 4-32 KiB and never
// repeat, and NPB shapes are taken in turn from npbShapes.
func genServiceChurn(r *rand.Rand) *plan {
	p := &plan{Core: churnCore, Block: churnBlock}
	order := r.Perm(len(churnStrategies))
	light := npbShapes(r, churnLight)
	var heavy [][]serve.Spec
	for _, k := range churnHeavy {
		heavy = append(heavy, npbShapes(r, []string{k}))
	}
	type daxpyShape struct {
		machine      string
		threads, rep int
		ws           int64
	}
	seen := map[daxpyShape]bool{}
	newDaxpy := func() serve.Spec {
		for {
			d := daxpyShape{[]string{"smp", "numa"}[r.Intn(2)], 2 + r.Intn(3), 1 + r.Intn(6), 4<<10 + 16*int64(r.Intn(28<<10/16+1))}
			if !seen[d] {
				seen[d] = true
				return serve.Spec{Workload: "daxpy", Machine: d.machine, Threads: d.threads, DaxpyWS: d.ws, DaxpyReps: d.rep}
			}
		}
	}
	var npbSweeps [][]planned // the new NPB sweep of every block so far
	group, walk, nLight := 0, 0, 0
	sweep := func(base serve.Spec, arts serve.ArtifactConfig) []planned {
		start := len(p.Sessions)
		p.add(group, base, "off", arts)
		for k := 0; k < 2; k++ {
			p.add(group, base, churnStrategies[order[walk%len(order)]], arts)
			walk++
		}
		group++
		return append([]planned(nil), p.Sessions[start:]...)
	}
	all := serve.ArtifactConfig{Metrics: true, Decisions: true, Trace: true}
	for block := 0; len(p.Sessions) < churnSessions; block++ {
		// One of the four new sweeps asks for artifacts.
		artifacts := r.Intn(4)
		arts := func(i int) serve.ArtifactConfig {
			if i == artifacts {
				return all
			}
			return serve.ArtifactConfig{}
		}
		var npb serve.Spec
		if block%churnHeavyEvery == churnHeavyEvery/2 {
			h := block / churnHeavyEvery
			shapes := heavy[h%len(heavy)]
			npb = shapes[h/len(heavy)%len(shapes)]
		} else {
			npb = light[nLight%len(light)]
			nLight++
		}
		npbSweeps = append(npbSweeps, sweep(npb, arts(0)))
		for i := 1; i <= 3; i++ {
			sweep(newDaxpy(), arts(i))
		}
		for back := 2; back >= 1; back-- {
			if block < back {
				sweep(newDaxpy(), serve.ArtifactConfig{})
				continue
			}
			for _, s := range npbSweeps[block-back] {
				p.Sessions = append(p.Sessions, planned{Req: s.Req, Group: group})
			}
			group++
		}
	}
	return p
}
