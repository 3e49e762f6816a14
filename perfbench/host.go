package main

import (
	"bufio"
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// host describes the machine and build a result came from.
type host struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func hostInfo() host {
	h := host{
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// The Go toolchain stamps the revision when the benchmark is built
	// inside a git checkout; a plain source tree has none.
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			h.Commit = rev
			if dirty {
				h.Commit += "+dirty"
			}
		}
	}
	return h
}

// references maps workload → seed → the pass-0 output digest the seed
// tree produced (see the reference command).
type references map[string]map[string]string

//go:embed reference.json
var referenceFS embed.FS

func loadReferences() (references, error) {
	data, err := referenceFS.ReadFile("reference.json")
	if err != nil {
		return nil, err
	}
	var r references
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return r, nil
}

func (r references) lookup(workload string, seed uint64) (string, bool) {
	d, ok := r[workload][strconv.FormatUint(seed, 10)]
	return d, ok
}

func (r references) set(workload string, seed uint64, digest string) {
	if r[workload] == nil {
		r[workload] = map[string]string{}
	}
	r[workload][strconv.FormatUint(seed, 10)] = digest
}
