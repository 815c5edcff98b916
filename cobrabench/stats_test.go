package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[n-1-i] = float64(i + 1) // descending: percentile must sort
	}
	return s
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n, want, beyond int
		ok              bool
	}{
		{100, 90, 10, true},
		{99, 90, 9, false},
		{150, 135, 15, true},
		{10, 9, 1, false},
	} {
		v, beyond, ok := percentile(seq(c.n), 0.9)
		if v != float64(c.want) || beyond != c.beyond || ok != c.ok {
			t.Errorf("p90 of 1..%d = %v beyond=%d ok=%v, want %d beyond=%d ok=%v", c.n, v, beyond, ok, c.want, c.beyond, c.ok)
		}
	}
	if m := median(seq(5)); m != 3 {
		t.Errorf("median of 1..5 = %v", m)
	}
	if _, _, ok := percentile(nil, 0.5); ok {
		t.Error("median of no samples reported")
	}
}

func TestGeomeanRatio(t *testing.T) {
	// Ratios 2, 1, 0.5 and 4: product 4, fourth root sqrt(2).
	g, err := geomeanRatio([]float64{200, 300, 50, 400}, []float64{100, 300, 100, 100})
	if err != nil || math.Abs(g-math.Sqrt2) > 1e-12 {
		t.Errorf("geomean = %v, %v; want sqrt(2)", g, err)
	}
	if _, err := geomeanRatio([]float64{1}, []float64{0}); err == nil {
		t.Error("zero cycles accepted")
	}
	if _, err := geomeanRatio(nil, nil); err == nil {
		t.Error("empty pair list accepted")
	}
}

func TestAccountingBalances(t *testing.T) {
	var a accounting
	for _, o := range []outcome{outcomeDone, outcomeDone, outcomeFailed, outcomeRefused, outcomeCancelled, outcomeDone} {
		a.record(o)
	}
	want := accounting{Attempted: 6, Completed: 3, Failed: 1, Refused: 1, Cancelled: 1}
	if a != want || !a.balanced() || a.unsuccessful() != 3 {
		t.Errorf("accounting %+v balanced=%v unsuccessful=%d, want %+v", a, a.balanced(), a.unsuccessful(), want)
	}
	a.Completed--
	if a.balanced() {
		t.Error("a lost session still balances")
	}
}

func TestSpeedupPairsWithOffTwin(t *testing.T) {
	p := &plan{Sessions: []planned{
		{Group: 0}, {Group: 0}, {Group: 0}, {Group: 1}, {Group: 1},
	}}
	for i, st := range []string{"off", "monitor", "adaptive", "off", "layout"} {
		p.Sessions[i].Req.Strategy = st
	}
	tr := make([]traced, 5)
	for i, c := range []int64{200, 202, 100, 90, 180} {
		tr[i].Meas.Cycles = c
	}
	off, cob, err := pairs(p, tr, func(s string) bool { return cobraStrategies[s] })
	if err != nil {
		t.Fatal(err)
	}
	g, _ := geomeanRatio(off, cob) // 200/100 and 90/180
	if g != 1 {
		t.Errorf("speedup %v over %v/%v, want 1", g, off, cob)
	}
	p.Sessions[3].Req.Strategy = "excl"
	if _, _, err := pairs(p, tr, func(s string) bool { return cobraStrategies[s] }); err == nil {
		t.Error("a COBRA session without an off twin was paired")
	}
}

// BENCHMARK.json and the benchmark name the same metrics, with the same
// units.
func TestBenchmarkJSONMatchesUnits(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{}
	for _, m := range append(b.EndToEnd, b.PerLayer...) {
		named[m.Name] = true
		if units[m.Name] != m.Unit {
			t.Errorf("%s: BENCHMARK.json unit %q, benchmark unit %q", m.Name, m.Unit, units[m.Name])
		}
	}
	for name := range units {
		if !named[name] {
			t.Errorf("%s is printed but not named in BENCHMARK.json", name)
		}
	}
}
