package mem

import (
	"reflect"
	"sync"
	"testing"
)

// drainFree empties the free list for cfg's geometry so a test controls
// exactly which hierarchies NewDomain reuses.
func drainFree(cfg Config) {
	takeHierarchies(nil, geometryOf(cfg), maxFreePerGeometry)
}

// driveTraffic runs a deterministic mixed access stream over a window
// larger than L3, so fills, evictions, castouts, upgrades and HITM
// transfers all touch the hierarchies, and returns every result.
func driveTraffic(d *Domain, base uint64, n int) []AccessResult {
	kinds := []AccessKind{LoadInt, LoadFP, Store, LoadBias, PrefShrd, PrefExcl}
	out := make([]AccessResult, 0, n)
	state := uint64(777)
	now := int64(0)
	for i := 0; i < n; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		cpu := int(state>>33) % d.cfg.NumCPUs
		addr := base + (state>>17)%(12<<20)
		if i%3 == 0 { // a hot window keeps lines bouncing between CPUs
			addr = base + (state>>17)%(32<<10)
		}
		now += 2
		out = append(out, d.Access(cpu, addr, kinds[(state>>7)%uint64(len(kinds))], now))
	}
	return out
}

func newTestDomain(t *testing.T, cfg Config) *Domain {
	t.Helper()
	d, err := NewDomain(cfg, NewMemory(cfg.MemBytes, cfg.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// requireFresh checks that h is indistinguishable from a newly built
// hierarchy for cpu: lines, LRU tick, fill tracking and MSHRs.
func requireFresh(t *testing.T, h *hierarchy, g geometry, cpu int) {
	t.Helper()
	want := newHierarchy(g, cpu)
	if h.cpu != want.cpu {
		t.Errorf("cpu id = %d, want %d", h.cpu, want.cpu)
	}
	for _, lv := range []struct {
		name      string
		got, want *cache
	}{{"L1D", h.l1, want.l1}, {"L2", h.l2, want.l2}, {"L3", h.l3, want.l3}} {
		got, fresh := lv.got, lv.want
		if got.cfg != fresh.cfg || got.lineShift != fresh.lineShift ||
			got.setMask != fresh.setMask || got.assoc != fresh.assoc {
			t.Errorf("cpu %d %s: geometry differs from a fresh cache", cpu, lv.name)
		}
		if !reflect.DeepEqual(got.sets, fresh.sets) {
			t.Errorf("cpu %d %s: lines differ from a fresh cache", cpu, lv.name)
		}
		if got.tick != fresh.tick {
			t.Errorf("cpu %d %s: tick = %d, want %d", cpu, lv.name, got.tick, fresh.tick)
		}
		if len(got.filled) != 0 {
			t.Errorf("cpu %d %s: fill list not cleared (%d sets listed)", cpu, lv.name, len(got.filled))
		}
	}
	if !reflect.DeepEqual(h.mshr, want.mshr) {
		t.Errorf("cpu %d: MSHRs = %v, want %v", cpu, h.mshr, want.mshr)
	}
}

// TestReleasedHierarchiesAreFresh runs traffic on SMP and NUMA domains,
// releases them, and checks that the next domain of the same geometry
// reuses those hierarchies, that each equals a newly built one, and that
// the recycled domain simulates the same traffic exactly as a fresh one.
// The narrower follow-up machine reuses hierarchies under new CPU ids.
func TestReleasedHierarchiesAreFresh(t *testing.T) {
	for _, tc := range []struct {
		name        string
		first, next Config
	}{
		{"smp4", Itanium2SMP(4), Itanium2SMP(4)},
		{"altix4", AltixNUMA(4), AltixNUMA(4)},
		{"smp4-then-2", Itanium2SMP(4), Itanium2SMP(2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first, next := tc.first, tc.next
			first.MemBytes, next.MemBytes = 16<<20, 16<<20
			const base, n = 1 << 20, 60000
			drainFree(first)

			used := newTestDomain(t, first)
			driveTraffic(used, base, n)
			if st := used.TotalStats(); st.Writebacks == 0 || st.BusRdHitm == 0 {
				t.Fatalf("traffic produced no castouts or HITM snoops: reset is untested (%+v)", st)
			}
			owned := map[*hierarchy]bool{}
			for _, h := range used.hiers {
				owned[h] = true
			}
			used.Release()
			used.Release() // idempotent

			again := newTestDomain(t, next)
			g := geometryOf(next)
			for cpu, h := range again.hiers {
				if !owned[h] {
					t.Fatalf("cpu %d: hierarchy not recycled", cpu)
				}
				requireFresh(t, h, g, cpu)
			}
			got := driveTraffic(again, base, n)

			drainFree(next)
			fresh := newTestDomain(t, next)
			if want := driveTraffic(fresh, base, n); !reflect.DeepEqual(got, want) {
				t.Fatal("recycled domain's access results differ from a fresh domain's")
			}
			if again.TotalStats() != fresh.TotalStats() {
				t.Fatalf("recycled stats %+v != fresh %+v", again.TotalStats(), fresh.TotalStats())
			}
			again.Release()
			fresh.Release()
		})
	}
}

// TestFreeListBounded releases more hierarchies than the bound and checks
// that only maxFreePerGeometry are kept.
func TestFreeListBounded(t *testing.T) {
	cfg := Itanium2SMP(2 * maxFreePerGeometry)
	cfg.MemBytes = 16 << 20
	drainFree(cfg)
	newTestDomain(t, cfg).Release()
	if got := len(takeHierarchies(nil, geometryOf(cfg), 2*maxFreePerGeometry)); got != maxFreePerGeometry {
		t.Fatalf("free list kept %d hierarchies, want %d", got, maxFreePerGeometry)
	}
}

// TestAccessAfterReleasePanics: a released domain's caches may already
// belong to another domain, so touching them must fail loudly.
func TestAccessAfterReleasePanics(t *testing.T) {
	cfg := Itanium2SMP(2)
	cfg.MemBytes = 16 << 20
	d := newTestDomain(t, cfg)
	d.Access(0, testAddr, Store, 0)
	d.Release()
	for name, f := range map[string]func(){
		"Access": func() { d.Access(0, testAddr, LoadInt, 10) },
		"Probe":  func() { d.Probe(1, testAddr) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Release did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestConcurrentRecycling builds, drives and releases domains of two
// geometries from several goroutines at once, so hierarchies pass between
// goroutines through the free list; every run must match a run on new
// caches. Run it under -race.
func TestConcurrentRecycling(t *testing.T) {
	cfgs := []Config{Itanium2SMP(2), AltixNUMA(2)}
	const base, n = 1 << 20, 3000
	want := make([][]AccessResult, len(cfgs))
	for i := range cfgs {
		cfgs[i].MemBytes = 16 << 20
		drainFree(cfgs[i])
		d := newTestDomain(t, cfgs[i])
		want[i] = driveTraffic(d, base, n)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 6; round++ {
				i := (g + round) % len(cfgs)
				d, err := NewDomain(cfgs[i], NewMemory(cfgs[i].MemBytes, cfgs[i].PageSize))
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(driveTraffic(d, base, n), want[i]) {
					t.Errorf("goroutine %d round %d: recycled run differs from a fresh one", g, round)
				}
				d.Release()
			}
		}(g)
	}
	wg.Wait()
}
