package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// provenance is what a result depends on besides the code under test:
// recorded in every output so that two results are only compared when
// these agree.
type provenance struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs_generator"`
	// ChildGOMAXPROCS is what the children run with: the benchmark sets
	// nothing, so they take the runtime default, which is nproc unless
	// the environment's GOMAXPROCS says otherwise.
	ChildGOMAXPROCS string              `json:"gomaxprocs_children"`
	GoVersion       string              `json:"go_version"`
	Commit          string              `json:"git_commit"`
	Seed            int64               `json:"seed"`
	ChildFlags      map[string][]string `json:"child_flags"`
	LiveRates       [3]float64          `json:"fleet_live_sessions_per_s"`
	Senders         int                 `json:"senders"`
	// WindowS and WarmupS are the measured window and the untimed
	// warm-up of this run; Calibration points at the one-off run the
	// fleet-live rates were frozen from.
	WindowS     float64 `json:"window_s,omitempty"`
	WarmupS     float64 `json:"warmup_s,omitempty"`
	Calibration string  `json:"calibration"`
}

func provenanceOf(root string, e *env, seed int64) provenance {
	p := provenance{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Seed: seed, ChildFlags: map[string][]string{}, LiveRates: liveRates, Senders: senders(),
		CPUModel: "unknown", Commit: "unknown", ChildGOMAXPROCS: "default (nproc)",
		Calibration: "bench/baseline/calibration.json",
	}
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		p.ChildGOMAXPROCS = v + " (inherited GOMAXPROCS)"
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// The driver's checkout is not a git repository; there the commit
	// stays unknown.
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
	}
	for _, c := range e.fleet.procs() {
		p.ChildFlags[c.name] = c.args
	}
	return p
}

// String renders the provenance as one JSON line.
func (p provenance) String() string {
	b, err := json.Marshal(p)
	if err != nil {
		return err.Error()
	}
	return string(b)
}
