package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// provenance records the host and inputs a result was measured on.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	Seconds    float64 `json:"seconds"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Load1      string  `json:"load_1min"`
	// Commit is the VCS revision the binary was built from, when the build
	// saw one; Source hashes the program's Go sources either way, so a
	// result can be tied to code in a checkout that is not a repository.
	Commit string `json:"commit"`
	Source string `json:"source_sha256"`
}

func newProvenance(cfg config) provenance {
	p := provenance{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown",
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			p.Load1 = f[0]
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				p.Commit = s.Value
			}
		}
	}
	p.Source = sourceDigest(".")
	return p
}

// sourceDigest hashes every .go file and go.mod under root, skipping
// hidden directories (the build output among them), in path order.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(f))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
