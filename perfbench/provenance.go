package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// Provenance says where a result came from: the inputs, the machine
// shape and the source tree.
type Provenance struct {
	Workload    string         `json:"workload"`
	Seed        uint64         `json:"seed"`
	Seconds     float64        `json:"seconds"`
	Trace       int            `json:"trace"`
	Params      Params         `json:"params"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	NProc       int            `json:"nproc"`
	CPUModel    string         `json:"cpu_model"`
	GoVersion   string         `json:"go_version"`
	GitRevision string         `json:"git_revision"`
	GitDirty    string         `json:"git_dirty"` // "true", "false" or "unknown"
	Details     map[string]any `json:"details,omitempty"`
	Failures    []string       `json:"failures,omitempty"`
}

func provenance(root, workload string, seed uint64, secs float64, trace int, p Params, nproc int, saveFile string) Provenance {
	rev, dirty := gitState(root, saveFile)
	return Provenance{
		Workload: workload, Seed: seed, Seconds: secs, Trace: trace, Params: p,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: nproc,
		CPUModel: cpuModel(), GoVersion: runtime.Version(),
		GitRevision: rev, GitDirty: dirty,
	}
}

// gitState reports the checked-out revision and whether the tree has
// uncommitted changes. The file runs are saved to (if any) does not count:
// it is written by the runs themselves. Outside a git checkout both are
// "unknown"; git is kept from searching parent directories for a
// repository.
func gitState(root, saveFile string) (rev, dirty string) {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown", "unknown"
	}
	git := func(args ...string) (string, bool) {
		cmd := exec.Command("git", append([]string{"-C", root}, args...)...)
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root), "GIT_OPTIONAL_LOCKS=0")
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err == nil
	}
	rev, ok := git("rev-parse", "HEAD")
	if !ok {
		return "unknown", "unknown"
	}
	args := []string{"status", "--porcelain", "--", "."}
	if saveFile != "" {
		if abs, err := filepath.Abs(saveFile); err == nil {
			if rel, err := filepath.Rel(root, abs); err == nil && filepath.IsLocal(rel) {
				args = append(args, ":(exclude,literal)"+filepath.ToSlash(rel))
			}
		}
	}
	status, ok := git(args...)
	switch {
	case !ok:
		return rev, "unknown"
	case status != "":
		return rev, "true"
	}
	return rev, "false"
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
