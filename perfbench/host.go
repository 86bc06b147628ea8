package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// hostStamp identifies the machine and code a result was measured on.
// The compare step refuses to compare results whose machine fields
// differ; GitRev, SourceDigest and Seed say which code and inputs ran.
type hostStamp struct {
	NumCPU       int    `json:"num_cpu"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GOARCH       string `json:"goarch"`
	CPUModel     string `json:"cpu_model"`
	GoVersion    string `json:"go_version"`
	GitRev       string `json:"git_rev"`
	SourceDigest string `json:"source_digest"`
	Seed         int64  `json:"seed"`
}

func stampHost(root string, seed int64) hostStamp {
	return hostStamp{
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GOARCH:       runtime.GOARCH,
		CPUModel:     cpuModel(),
		GoVersion:    runtime.Version(),
		GitRev:       gitRev(root),
		SourceDigest: sourceDigest(root),
		Seed:         seed,
	}
}

// sameMachine reports whether two stamps name the same kind of host.
func (h hostStamp) sameMachine(o hostStamp) bool {
	return h.NumCPU == o.NumCPU && h.GOMAXPROCS == o.GOMAXPROCS && h.GOARCH == o.GOARCH &&
		h.CPUModel == o.CPUModel && h.GoVersion == o.GoVersion
}

// cpuModel reads the first "model name" from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRev resolves HEAD from the .git directory without running git, or
// returns "none" outside a git checkout.
func gitRev(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "none"
}

// sourceDigest is a SHA-256 over the paths and bytes of every Go source
// and go.mod file under root, so a result names its code even where no
// git metadata exists.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries do not count
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
