package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// clientCount is the number of load-generator connections: nproc, at
// most two.
func clientCount() int { return max(1, min(2, runtime.NumCPU())) }

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceIdentity names the code under test: the git commit when the tree
// is a repository, and always a digest of the Go sources and go.mod
// outside the benchmark's own directory.
func sourceIdentity() (commit, tree string) {
	commit = "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	h := sha256.New()
	filepath.WalkDir(".", func(path string, de os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if de.IsDir() {
			if path == "perfbench" || strings.HasPrefix(de.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || path == "go.mod" {
			f, err := os.Open(path)
			if err == nil {
				fmt.Fprintf(h, "%s\n", path)
				io.Copy(h, f)
				f.Close()
			}
		}
		return nil
	})
	return commit, hex.EncodeToString(h.Sum(nil))[:16]
}

// printRecord prints the run's provenance as one JSON line.
func printRecord(rn *runner) {
	commit, tree := sourceIdentity()
	w := rn.w
	backend := "mem"
	if w.disk {
		backend = "disk (durable, -wal-sync 64)"
	}
	rec := map[string]any{
		"workload":      w.name,
		"seed":          w.seed,
		"seconds":       rn.seconds,
		"cpu":           cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"commit":        commit,
		"source_sha256": tree,
		"uuserve_flags": strings.Join(rn.daemonArgs("<store>"), " "),
		"backend":       backend,
		"clients":       rn.clients,
		"entities":      len(w.ents),
		"sources":       len(w.sources),
		"observations":  len(w.rows),
		"preload_rows":  w.preload,
		"stream_rows":   len(w.rows) - w.preload,
		"batch_rows":    w.batchLen,
		"predicates":    len(w.preds),
		"request_kinds": requestKinds(w),
		"digest_prefix": w.digestN,
		"cache_budgets": "programs 128, bitmaps 8 MiB, partials 16 MiB per table; results 16 MiB per tenant",
	}
	out, _ := json.Marshal(rec)
	fmt.Printf("record %s\n", out)
}

func requestKinds(w *workload) map[string]int {
	kinds := map[string]int{}
	for _, r := range w.seq {
		k := r.agg
		if r.groupBy {
			k += " GROUP BY"
		}
		kinds[k]++
	}
	return kinds
}

// printCacheRecord prints the cache counters of the timed phase and which
// budgets the workload's working set exceeded (an eviction happened, or
// compiled programs missed more often than there are distinct
// predicates).
func printCacheRecord(rn *runner, ph *phase) {
	b, a := ph.statsBefore.Cache, ph.statsAfter.Cache
	distinct := map[int]bool{}
	for _, r := range ph.replies {
		distinct[rn.w.seq[r.id].pred] = true
	}
	rec := map[string]any{
		"program_hits_misses": []uint64{a.ProgramHits - b.ProgramHits, a.ProgramMisses - b.ProgramMisses},
		"bitmap_hits_misses":  []uint64{a.BitmapHits - b.BitmapHits, a.BitmapMisses - b.BitmapMisses},
		"partial_hits_misses": []uint64{a.PartialHits - b.PartialHits, a.PartialMisses - b.PartialMisses},
		"result_hits_misses":  []uint64{a.ResultHits - b.ResultHits, a.ResultMisses - b.ResultMisses},
		"exceeds": map[string]bool{
			"programs": a.ProgramMisses-b.ProgramMisses > uint64(len(distinct)),
			"bitmaps":  a.BitmapEvictions > b.BitmapEvictions,
			"partials": a.PartialEvictions > b.PartialEvictions,
			"results":  a.ResultEvictions > b.ResultEvictions,
		},
	}
	out, _ := json.Marshal(rec)
	fmt.Printf("caches %s %s\n", rn.w.name, out)
}
