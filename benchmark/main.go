// Command benchmark is the repository's end-to-end benchmark. It is a
// load generator that runs apart from the system under test: it trains
// the tenant model with the `intellog` CLI, boots a real `intellogd` as a
// child process, drives it on an open-loop schedule, drains it, checks
// the daemon's report against offline detection, and runs `intellog
// detect` over the same corpus. Every end-to-end number comes from
// outside the programs (client-side timing, /metrics deltas, /proc).
// With --trace 1 it instead makes the traced run: the same workload with
// spans around each client call, then an in-process replay of the same
// batches through each layer's public functions, printing the per-layer
// budget and its reconciliation with the daemon's CPU cost.
//
// Run it through run.sh, which builds the programs first:
//
//	bash benchmark/run.sh --workload ils1-online --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object holding the
// metrics; everything above it is a human-readable report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects named metrics in insertion order for the report.
type metricSet struct {
	order []string
	m     map[string]metric
}

func newMetricSet() *metricSet { return &metricSet{m: map[string]metric{}} }

func (s *metricSet) set(name, unit string, v float64) {
	if _, ok := s.m[name]; !ok {
		s.order = append(s.order, name)
	}
	s.m[name] = metric{Value: v, Unit: unit}
}

func (s *metricSet) print(title string) {
	fmt.Printf("%s\n", title)
	for _, n := range s.order {
		m := s.m[n]
		fmt.Printf("  %-36s %14.4f %s\n", n, m.Value, m.Unit)
	}
}

// env holds the paths every stage needs.
type env struct {
	root   string // checkout root: the programs' sources
	bin    string // built intellog / intellogd
	work   string // per-run scratch, removed at exit
	traces string // span dumps of traced runs
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), " | "))
		seed    = flag.Int64("seed", 1, "input seed: same seed, same corpora")
		seconds = flag.Int("seconds", 30, "length of the measured ingest phase")
		trace   = flag.Int("trace", 0, "1 makes the traced run (per-layer metrics), 0 the untraced one (end-to-end metrics)")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fatalf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fatalf("--seconds must be >= 1 and --trace 0 or 1")
	}
	// The benchmark runs from the checkout root, where run.sh built the
	// programs into .bench_build/bin.
	root, err := os.Getwd()
	if err != nil {
		fatalf("working directory: %v", err)
	}
	out := filepath.Join(root, ".bench_build")
	e := env{root: root, bin: filepath.Join(out, "bin"), traces: filepath.Join(out, "traces")}
	for _, p := range []string{"intellog", "intellogd"} {
		if _, err := os.Stat(filepath.Join(e.bin, p)); err != nil {
			fatalf("missing program %s: %v (build with run.sh)", p, err)
		}
	}
	scratch := filepath.Join(out, "runs")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fatalf("scratch: %v", err)
	}
	e.work, err = os.MkdirTemp(scratch, fmt.Sprintf("%s-%d-", w.name, *seed))
	if err != nil {
		fatalf("scratch: %v", err)
	}

	// On SIGINT/SIGTERM kill and reap the children, drop the scratch
	// directory and exit.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		killChildren()
		os.RemoveAll(e.work)
		os.Exit(1)
	}()

	stampRun(e, w, *seed, *seconds, *trace)
	var res result
	if *trace == 1 {
		res, err = runTraced(e, w, *seed, time.Duration(*seconds)*time.Second)
	} else {
		res, err = runUntraced(e, w, *seed, time.Duration(*seconds)*time.Second)
	}
	os.RemoveAll(e.work)
	if err != nil {
		fatalf("%v", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}
