package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// stampRun prints what a result depends on besides the code: the
// machine's width, the Go toolchain and the revision measured.
func stampRun(e env, w workload, seed int64, seconds, trace int) {
	fmt.Printf("benchmark: workload=%s seed=%d seconds=%d trace=%d\n", w.name, seed, seconds, trace)
	fmt.Printf("machine: nproc=%d GOMAXPROCS=%d go=%s %s/%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, revision(e.root))
}

// revision names the measured source: the git commit when the checkout
// is a repository, otherwise a hash of the Go sources and module files.
func revision(root string) string {
	// The ceiling keeps git from finding a repository above the checkout.
	git := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD")
	git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	if out, err := git.Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "go.mod")) {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(raw))
		h.Write(raw)
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:12]
}
