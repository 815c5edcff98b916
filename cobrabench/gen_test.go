package main

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/serve"
)

func TestGenerateDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := generate(w.name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(w.name, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two plans at seed 7 differ", w.name)
		}
		c, _ := generate(w.name, 8)
		if reflect.DeepEqual(a.Sessions, c.Sessions) {
			t.Errorf("%s: seeds 7 and 8 give the same plan", w.name)
		}
	}
	if _, err := generate("nope", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

// Every COBRA or monitor session has an off twin earlier in its group:
// the same spec with strategy off. Every spec is valid, the core holds enough sessions for a p90, and no
// group straddles a block boundary.
func TestPlansPairEverySessionWithAnOffTwin(t *testing.T) {
	for _, w := range workloads {
		for seed := int64(1); seed <= 5; seed++ {
			p, _ := generate(w.name, seed)
			if p.Core < 100 || p.Core > len(p.Sessions) {
				t.Fatalf("%s/%d: core %d of %d sessions", w.name, seed, p.Core, len(p.Sessions))
			}
			if p.Core%p.Block != 0 || len(p.Sessions)%p.Block != 0 {
				t.Fatalf("%s/%d: core %d or length %d not whole blocks of %d", w.name, seed, p.Core, len(p.Sessions), p.Block)
			}
			for i := p.Block; i < len(p.Sessions); i += p.Block {
				if p.Sessions[i-1].Group == p.Sessions[i].Group {
					t.Fatalf("%s/%d: group %d straddles a block boundary", w.name, seed, p.Sessions[i].Group)
				}
			}
			twins := map[int]string{}
			for i, s := range p.Sessions {
				spec := s.Req.Spec
				spec.Normalize()
				if err := spec.Validate(); err != nil {
					t.Fatalf("%s/%d: session %d: %v", w.name, seed, i, err)
				}
				base := s.Req.Spec
				base.Strategy = ""
				switch st := s.Req.Strategy; {
				case st == "off":
					twins[s.Group] = specID(base)
				case st == "monitor" || cobraStrategies[st]:
					if twins[s.Group] != specID(base) {
						t.Fatalf("%s/%d: session %d (%s) has no off twin before it in group %d", w.name, seed, i, st, s.Group)
					}
				default:
					t.Fatalf("%s/%d: session %d has strategy %q", w.name, seed, i, st)
				}
			}
		}
	}
}

func TestBlockWorkloadsNeverRepeatASpec(t *testing.T) {
	for _, w := range []string{"paper-mix", "irregular-numa"} {
		p, _ := generate(w, 3)
		seen := map[string]bool{}
		for i, s := range p.Sessions {
			id := specID(s.Req.Spec)
			if seen[id] {
				t.Fatalf("%s: session %d repeats %s", w, i, id)
			}
			seen[id] = true
		}
	}
}

// Each round of paper-mix and irregular-numa holds the same multiset of
// specs, up to machine shape, affinity and working-set jitter, whatever
// the seed.
func TestRoundsHoldTheSameMixAtEverySeed(t *testing.T) {
	mix := func(p *plan, from, to int) map[string]int {
		m := map[string]int{}
		for _, s := range p.Sessions[from:to] {
			spec := s.Req.Spec
			spec.Affinity, spec.DaxpyWS = nil, spec.DaxpyWS>>16
			spec.Machine, spec.Threads = "", 0
			if s.Req.Strategy != "off" && s.Req.Strategy != "monitor" {
				spec.Strategy = "cobra"
			}
			m[specID(spec)]++
		}
		return m
	}
	for w, rounds := range map[string]int{"paper-mix": paperRounds, "irregular-numa": irregularRounds} {
		a, _ := generate(w, 1)
		round := len(a.Sessions) / rounds
		for seed := int64(2); seed <= 4; seed++ {
			b, _ := generate(w, seed)
			for r := 0; r < rounds; r++ {
				if !reflect.DeepEqual(mix(a, r*round, (r+1)*round), mix(b, r*round, (r+1)*round)) {
					t.Errorf("%s: round %d differs between seeds 1 and %d", w, r, seed)
				}
			}
		}
	}
}

// service-churn comes in sweeps of three sessions on one program shape,
// six sweeps to a block: a new NPB shape, three new DAXPY shapes, and the
// NPB sweeps of the two blocks before, asked again. One new sweep of each
// block asks for every artifact, one block in churnHeavyEvery has a heavy
// NPB kernel, and new sweeps submit the eight non-off strategies equally
// often (to one, as the walk stops mid-order).
func TestServiceChurnSweeps(t *testing.T) {
	all := serve.ArtifactConfig{Metrics: true, Decisions: true, Trace: true}
	heavy := map[string]bool{}
	for _, k := range churnHeavy {
		heavy[k] = true
	}
	for seed := int64(1); seed <= 3; seed++ {
		p, _ := generate("service-churn", seed)
		if p.Block != 18 || p.Core%p.Block != 0 {
			t.Fatalf("seed %d: block %d, core %d", seed, p.Block, p.Core)
		}
		strategies := map[string]int{}
		shapes := map[string]bool{}
		heavyAt := map[int]int{}
		var npbSweeps []string
		for b := 0; b+p.Block <= len(p.Sessions); b += p.Block {
			block := b / p.Block
			var sweeps []string
			withArts := 0
			for g := b; g < b+p.Block; g += 3 {
				sw := p.Sessions[g : g+3]
				base := sw[0].Req.Spec
				base.Strategy = ""
				if sw[0].Req.Strategy != "off" || sw[0].Group != sw[2].Group || g > 0 && p.Sessions[g-1].Group == sw[0].Group {
					t.Fatalf("seed %d: session %d does not start a sweep", seed, g)
				}
				for _, s := range sw {
					spec := s.Req.Spec
					spec.Strategy = ""
					if specID(spec) != specID(base) || s.Req.Artifacts != sw[0].Req.Artifacts {
						t.Fatalf("seed %d: sweep at %d mixes shapes or artifact requests", seed, g)
					}
					if a := s.Req.Artifacts; a != all && a != (serve.ArtifactConfig{}) {
						t.Fatalf("seed %d: sweep at %d asks for some artifacts only", seed, g)
					}
				}
				id := ""
				for _, s := range sw {
					id += specID(s.Req.Spec)
				}
				sweeps = append(sweeps, id)
				k := len(sweeps) - 1
				reask := k >= 4 && block >= 6-k
				if !reask {
					if shapes[specID(base)] {
						t.Fatalf("seed %d: new sweep at %d repeats shape %s", seed, g, specID(base))
					}
					shapes[specID(base)] = true
					strategies[sw[1].Req.Strategy]++
					strategies[sw[2].Req.Strategy]++
					if sw[0].Req.Artifacts == all {
						withArts++
					}
				}
				if isNPB := base.Workload != "daxpy"; isNPB != (k == 0 || reask) {
					t.Fatalf("seed %d: sweep %d of block %d is %s", seed, k, block, base.Workload)
				}
				if k == 0 && heavy[base.Workload] {
					heavyAt[block%churnHeavyEvery]++
				}
			}
			npbSweeps = append(npbSweeps, sweeps[0])
			for back := 2; back >= 1; back-- {
				if block >= back && sweeps[6-back] != npbSweeps[block-back] {
					t.Fatalf("seed %d: block %d does not ask again for the NPB sweep of block %d", seed, block, block-back)
				}
			}
			if withArts != 1 {
				t.Fatalf("seed %d: block %d has %d new sweeps with artifacts", seed, block, withArts)
			}
			if block == 300 {
				break // NPB shapes may repeat once all are used
			}
		}
		if len(heavyAt) != 1 {
			t.Errorf("seed %d: heavy NPB sweeps at block residues %v", seed, heavyAt)
		}
		lo, hi := len(p.Sessions), 0
		for _, n := range strategies {
			lo, hi = min(lo, n), max(hi, n)
		}
		if hi-lo > 1 || len(strategies) != len(churnStrategies) {
			t.Errorf("seed %d: strategy counts %v", seed, strategies)
		}
	}
}

func TestRoundAffinity(t *testing.T) {
	if a := roundAffinity(0, 2, 4); a != nil {
		t.Errorf("round 0 binds %v", a)
	}
	if a := roundAffinity(1, 3, 4); !reflect.DeepEqual(a, []int{0, 1, 2}) {
		t.Errorf("round 1 binds %v, want the default spelled out", a)
	}
	if a := roundAffinity(2, 2, 2); !reflect.DeepEqual(a, []int{1, 0}) {
		t.Errorf("round 2 of two CPUs binds %v", a)
	}
	seen := map[string]bool{}
	for r := 1; r <= 12; r++ {
		id := fmt.Sprint(roundAffinity(r, 2, 4))
		if seen[id] {
			t.Errorf("round %d repeats binding %s", r, id)
		}
		seen[id] = true
	}
}
