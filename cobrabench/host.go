package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// fingerprint identifies the host a run was measured on. Runs are
// compared only when everything but the commit matches: a number taken on
// another CPU count, CPU model or toolchain measures another machine.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	NUMANodes  int    `json:"numa_nodes"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func hostFingerprint() fingerprint {
	return fingerprint{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		NUMANodes:  numaNodes(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

func (f fingerprint) sameHost(g fingerprint) bool {
	f.Commit, g.Commit = "", ""
	return f == g
}

// cpuModel is the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// numaNodes counts the node<N> directories of /sys/devices/system/node;
// 0 when the directory is unreadable.
func numaNodes() int {
	dir, err := os.ReadDir("/sys/devices/system/node")
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range dir {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "node") {
			continue
		}
		if _, err := strconv.Atoi(strings.TrimPrefix(e.Name(), "node")); err == nil {
			n++
		}
	}
	return n
}

// commit is the VCS revision the binary was built from, "unknown" when it
// was built outside a repository.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// peakRSSMiB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// record is one run as appended to the run log: what was run, where, and
// what it printed.
type record struct {
	Fingerprint  fingerprint `json:"fingerprint"`
	Workload     string      `json:"workload"`
	Seed         int64       `json:"seed"`
	Trace        int         `json:"trace"`
	Digest       string      `json:"digest"`
	FailedChecks []string    `json:"failed_checks,omitempty"`
	Result       result      `json:"result"`
}

func appendRecord(path string, r record) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rs []record
	dec := json.NewDecoder(f)
	for {
		var r record
		if err := dec.Decode(&r); err == io.EOF {
			return rs, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		rs = append(rs, r)
	}
}

// compare prints, per workload and metric, the median and quartiles of
// two run logs (a baseline and a candidate) and the ratio of the medians.
// It refuses logs holding runs from different hosts.
func compare(w io.Writer, basePath, candPath string) error {
	base, err := readRecords(basePath)
	if err != nil {
		return err
	}
	cand, err := readRecords(candPath)
	if err != nil {
		return err
	}
	all := append(append([]record(nil), base...), cand...)
	if len(base) == 0 || len(cand) == 0 {
		return errors.New("compare: a run log is empty")
	}
	for _, r := range all[1:] {
		if !r.Fingerprint.sameHost(all[0].Fingerprint) {
			return fmt.Errorf("compare: refusing runs from different hosts: %+v vs %+v", all[0].Fingerprint, r.Fingerprint)
		}
	}
	values := func(rs []record, wl, metric string) []float64 {
		var v []float64
		for _, r := range rs {
			if m, ok := r.Result.Metrics[metric]; ok && r.Workload == wl {
				v = append(v, m.Value)
			}
		}
		return v
	}
	keys := map[[2]string]bool{}
	for _, r := range all {
		for name := range r.Result.Metrics {
			keys[[2]string{r.Workload, name}] = true
		}
	}
	var sorted [][2]string
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i][0] != sorted[j][0] {
			return sorted[i][0] < sorted[j][0]
		}
		return sorted[i][1] < sorted[j][1]
	})
	quartiles := func(v []float64) string {
		q1, _, _ := percentile(v, 0.25)
		q3, _, _ := percentile(v, 0.75)
		return fmt.Sprintf("%.4g/%.4g/%.4g", q1, median(v), q3)
	}
	fmt.Fprintf(w, "%-16s %-34s %5s %-30s %-30s %s\n", "workload", "metric", "n", "base q1/median/q3", "candidate q1/median/q3", "ratio")
	for _, k := range sorted {
		b, c := values(base, k[0], k[1]), values(cand, k[0], k[1])
		if len(b) == 0 || len(c) == 0 {
			continue
		}
		ratio := 0.0
		if bm := median(b); bm != 0 {
			ratio = median(c) / bm
		}
		fmt.Fprintf(w, "%-16s %-34s %2d/%-2d %-30s %-30s %.4f\n", k[0], k[1], len(b), len(c), quartiles(b), quartiles(c), ratio)
	}
	return nil
}
