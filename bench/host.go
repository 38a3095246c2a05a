package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// hostFacts are recorded in every result file: a number measured on one
// host says nothing about another, and a comparison across two sets of
// facts is flagged by `compare`.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func readHostFacts(root string) hostFacts {
	h := hostFacts{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Commit:     "unknown",
	}
	if v, err := procField("/proc/cpuinfo", "model name"); err == nil {
		h.CPUModel = v
	}
	// The driver's checkout is not a git repository; "unknown" is then
	// the honest answer.
	cmd := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD")
	if out, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

func (h hostFacts) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s cpu=%q commit=%s", h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.Commit)
}

// procField returns the value of the first "key : value" line of a
// /proc text file.
func procField(path, key string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("%s: no %q line", path, key)
}

// peakRSSMB is this process's high-water resident set (VmHWM), in MB.
func peakRSSMB() (float64, error) {
	v, err := procField("/proc/self/status", "VmHWM")
	if err != nil {
		return 0, err
	}
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0, fmt.Errorf("VmHWM %q: %w", v, err)
	}
	return kb / 1024, nil
}
