package main

import (
	"strings"
	"testing"
	"time"
)

// A short plan through a real server and the traced replay, with two
// clients and two workers: every check but the p90 sample count (too few
// sessions) must pass, and the accounting must balance.
func TestShortRunPassesItsChecks(t *testing.T) {
	p, err := generate("service-churn", 1)
	if err != nil {
		t.Fatal(err)
	}
	// Three blocks: the third asks again for two NPB sweeps.
	p.Sessions, p.Core = p.Sessions[:3*p.Block], 3*p.Block
	dir := t.TempDir()
	srv, err := startServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	sv, _, err := closedLoop(srv.url, p, 2, time.Nanosecond)
	if stopErr := srv.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(sv) != p.Core {
		t.Fatalf("attempted %d sessions, want the core's %d", len(sv), p.Core)
	}
	tr, lfetch, err := replay(p, len(sv), 2, dir)
	if err != nil {
		t.Fatal(err)
	}
	a := analyze(p, sv, tr, lfetch)
	for _, e := range a.errs {
		if !strings.HasPrefix(e, "p90 rests on") {
			t.Error(e)
		}
	}
	if a.acc.Completed != len(sv) || !a.acc.balanced() {
		t.Errorf("accounting %+v for %d sessions", a.acc, len(sv))
	}
	if a.layers["sched.ledger_hit_ratio"] == 0 || a.layers["workload.compile_ms_p50"] == 0 {
		t.Errorf("no ledger hits or compiles measured: %v", a.layers)
	}
}
