package workload

import (
	"runtime"
	"testing"

	"repro/internal/ia64"
)

func tinyDaxpy() *Workload {
	return Daxpy(DaxpyParams{WorkingSetBytes: 32 << 10, OuterReps: 4})
}

func countLfetch(inst *Instance) int {
	img := inst.Ctx.M.Image()
	return img.OpCount(0, img.Len(), func(in ia64.Instr) bool { return in.Op == ia64.OpLfetch })
}

func TestBuildCacheCompilesOnce(t *testing.T) {
	c := NewBuildCache()
	bc := SMPConfig(2)

	inst1, err := c.Build("daxpy-test", tinyDaxpy(), bc)
	if err != nil {
		t.Fatal(err)
	}
	inst2, err := c.Build("daxpy-test", tinyDaxpy(), bc)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}

	m1, err := inst1.Measure()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := inst2.Measure()
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatalf("cached instances diverge:\n%+v\n%+v", m1, m2)
	}

	// The cache must be transparent: same measurement as an uncached build.
	plain, err := Build(tinyDaxpy(), bc)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := plain.Measure()
	if err != nil {
		t.Fatal(err)
	}
	if m1 != mp {
		t.Fatalf("cached build diverges from plain Build:\n%+v\n%+v", m1, mp)
	}
}

func TestBuildCacheInstancesAreIsolated(t *testing.T) {
	c := NewBuildCache()
	bc := SMPConfig(2)

	inst1, err := c.Build("daxpy-test", tinyDaxpy(), bc)
	if err != nil {
		t.Fatal(err)
	}
	before := countLfetch(inst1)
	if before == 0 {
		t.Fatal("compiled DAXPY has no prefetches")
	}
	// Statically patching one instance (the Figure 3 methodology) must not
	// leak into later instances stamped from the same artifact.
	if _, err := ApplyVariant(inst1, VariantNoPrefetch); err != nil {
		t.Fatal(err)
	}
	if got := countLfetch(inst1); got != 0 {
		t.Fatalf("variant left %d prefetches in patched instance", got)
	}
	inst2, err := c.Build("daxpy-test", tinyDaxpy(), bc)
	if err != nil {
		t.Fatal(err)
	}
	if got := countLfetch(inst2); got != before {
		t.Fatalf("fresh instance has %d prefetches, want pristine %d", got, before)
	}
}

func TestBuildCacheKeySeparatesConfigs(t *testing.T) {
	c := NewBuildCache()
	if _, err := c.Build("daxpy-test", tinyDaxpy(), SMPConfig(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Build("daxpy-test", tinyDaxpy(), SMPConfig(4)); err != nil {
		t.Fatal(err)
	}
	nopf := SMPConfig(1)
	nopf.Compiler.Prefetch = false
	if _, err := c.Build("daxpy-test", tinyDaxpy(), nopf); err != nil {
		t.Fatal(err)
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 3 {
		t.Fatalf("stats = %d hits / %d misses, want 0/3", hits, misses)
	}
}

// tinySession is one short service-style session: a build-cache hit, a
// run and a release of a 16 KiB DAXPY on the 4-CPU Altix configuration.
func tinySession(c *BuildCache) error {
	w := Daxpy(DaxpyParams{WorkingSetBytes: 16 << 10, OuterReps: 1})
	inst, err := c.Build("daxpy-tiny", w, NUMAConfig(4))
	if err != nil {
		return err
	}
	_, err = inst.Measure()
	inst.Release()
	return err
}

// TestSessionTinyCachedBytes pins what a recycled short session allocates:
// its machine reuses the caches the previous session released and its
// memory materializes only the chunks the kernel touches, so it stays far
// below one Altix CPU's cache arrays (~0.85 MB) let alone four.
func TestSessionTinyCachedBytes(t *testing.T) {
	c := NewBuildCache()
	if err := tinySession(c); err != nil { // compile, and leave caches to recycle
		t.Fatal(err)
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := tinySession(c); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perSession := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes allocated per session", perSession)
	if perSession >= 512<<10 {
		t.Fatalf("a cached tiny session allocates %d bytes, want < 512 KiB", perSession)
	}
}

// BenchmarkSessionTinyCached times the build-cache clone layer end to end:
// one cached short session per iteration.
func BenchmarkSessionTinyCached(b *testing.B) {
	c := NewBuildCache()
	if err := tinySession(c); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tinySession(c); err != nil {
			b.Fatal(err)
		}
	}
}
