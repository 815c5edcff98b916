package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareRefusesOtherHosts(t *testing.T) {
	dir := t.TempDir()
	host := fingerprint{NProc: 2, GOMAXPROCS: 2, CPUModel: "x", NUMANodes: 1, GoVersion: "go1", Commit: "a"}
	rec := func(fp fingerprint, v float64) record {
		return record{Fingerprint: fp, Workload: "paper-mix", Result: result{Metrics: map[string]metricValue{"sessions_per_s": {Value: v}}}}
	}
	base, cand, other := filepath.Join(dir, "base"), filepath.Join(dir, "cand"), filepath.Join(dir, "other")
	newCommit, otherCPU := host, host
	newCommit.Commit = "b"
	otherCPU.NProc = 4
	for _, r := range []struct {
		path string
		rec  record
	}{{base, rec(host, 10)}, {base, rec(host, 12)}, {cand, rec(newCommit, 15)}, {other, rec(otherCPU, 11)}} {
		if err := appendRecord(r.path, r.rec); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if err := compare(&out, base, cand); err != nil {
		t.Fatalf("same host, another commit: %v", err)
	}
	if !strings.Contains(out.String(), "sessions_per_s") || !strings.Contains(out.String(), "1.5000") {
		t.Errorf("comparison output:\n%s", out.String())
	}
	if err := compare(&out, base, other); err == nil {
		t.Error("runs from hosts with different CPU counts were compared")
	}
}
