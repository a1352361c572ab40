package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// hostRecord pins the machine and tree a result came from.
type hostRecord struct {
	NProc      int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	GoVersion  string           `json:"go_version"`
	CacheKiB   map[string]int64 `json:"cache_kib"` // "L2" -> size of one instance, from sysfs
	Commit     string           `json:"commit"`
	Seed       int64            `json:"seed"`
	Armed      bool             `json:"armed"`
	Dataset    string           `json:"dataset,omitempty"`
}

func recordHost(root string, seed int64, ranks int) hostRecord {
	h := hostRecord{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CacheKiB:   cacheSizes(),
		Commit:     "unknown",
		Seed:       seed,
	}
	// With fewer schedulable threads than ranks the ranks time-share, and no
	// number from the run says anything about the parallel engine.
	h.Armed = h.GOMAXPROCS >= ranks
	git := exec.Command("git", "rev-parse", "--short", "HEAD")
	git.Dir = root
	if out, err := git.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// cacheSizes reads cpu0's cache hierarchy from sysfs; empty where the
// platform has none.
func cacheSizes() map[string]int64 {
	sizes := make(map[string]int64)
	dirs, err := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	if err != nil {
		return sizes
	}
	for _, dir := range dirs {
		read := func(name string) string {
			b, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				return ""
			}
			return strings.TrimSpace(string(b))
		}
		if read("type") == "Instruction" {
			continue
		}
		var kib int64
		if _, err := fmt.Sscanf(read("size"), "%dK", &kib); err != nil {
			continue
		}
		sizes["L"+read("level")] = kib
	}
	return sizes
}

// llcBytes is the largest cache level found, 0 when unknown.
func (h hostRecord) llcBytes() int64 {
	var max int64
	for _, kib := range h.CacheKiB {
		if kib > max {
			max = kib
		}
	}
	return max << 10
}
