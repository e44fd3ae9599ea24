// Command loggen generates simulated analytics-cluster log corpora: one
// raw log file per YARN container session (the unit IntelLog analyses),
// plus the YARN daemon log and a ground-truth manifest for scoring.
//
// Usage:
//
//	loggen -framework spark -jobs 3 -fault none -out ./logs
//	loggen -framework flink -jobs 4 -fault kill -hostile burst -out ./logs
//
// Frameworks: spark, mapreduce, tez, tensorflow, flink, hdfs, yarn-rm.
// Faults: none, kill, network, node, spill, idle-containers,
// slow-shutdown. With -hostile, the per-session streams are additionally
// interleaved into one aggregated stream, reshaped by the named hostile
// traffic profile (see internal/workload) and written to aggregated.log.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"intellog/internal/logging"
	"intellog/internal/sim"
	"intellog/internal/workload"
)

func main() {
	var (
		framework = flag.String("framework", "spark", "spark | mapreduce | tez | tensorflow | flink | hdfs | yarn-rm")
		jobs      = flag.Int("jobs", 3, "number of jobs to submit")
		fault     = flag.String("fault", "none", "fault to inject: none | kill | network | node | spill | idle-containers | slow-shutdown")
		hostile   = flag.String("hostile", "", workload.HostileFlagDoc)
		out       = flag.String("out", "logs", "output directory")
		seed      = flag.Int64("seed", 1, "random seed")
		nodes     = flag.Int("nodes", 26, "cluster worker nodes")
	)
	flag.Parse()

	fw, err := logging.ParseFramework(*framework)
	if err != nil {
		fatal(err)
	}
	fk, err := parseFault(*fault)
	if err != nil {
		fatal(err)
	}
	hp, err := parseHostile(*hostile)
	if err != nil {
		fatal(err)
	}
	if err := run(fw, fk, hp, *jobs, *out, *seed, *nodes); err != nil {
		fatal(err)
	}
}

func run(fw logging.Framework, fk sim.FaultKind, hp workload.HostileProfile, jobs int, out string, seed int64, nodes int) error {
	cluster := sim.NewCluster(nodes, seed)
	gen := workload.NewGenerator(cluster, seed+1)

	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	manifest := struct {
		Framework  string            `json:"framework"`
		Fault      string            `json:"fault"`
		Hostile    string            `json:"hostile,omitempty"`
		Jobs       int               `json:"jobs"`
		Sessions   int               `json:"sessions"`
		Affected   map[string]bool   `json:"affected"`
		Files      map[string]string `json:"files"`
		JobNames   []string          `json:"jobNames"`
		Aggregated string            `json:"aggregated,omitempty"`
	}{
		Framework: string(fw), Fault: fk.String(), Hostile: string(hp), Jobs: jobs,
		Affected: map[string]bool{}, Files: map[string]string{},
	}

	formatter := logging.FormatterFor(fw)
	var yarnLines []string
	var allRecs []logging.Record
	total := 0
	for i := 0; i < jobs; i++ {
		res := gen.Submit(fw, fk)
		manifest.JobNames = append(manifest.JobNames, res.Spec.Name)
		for sid := range res.Affected {
			manifest.Affected[sid] = true
		}
		for _, s := range res.Sessions {
			name := s.ID + ".log"
			var b strings.Builder
			for _, rec := range s.Records {
				b.WriteString(formatter.Render(rec))
				b.WriteByte('\n')
			}
			if err := os.WriteFile(filepath.Join(out, name), []byte(b.String()), 0o644); err != nil {
				return err
			}
			if hp != "" {
				for _, rec := range s.Records {
					rec.SessionID = s.ID
					rec.Framework = s.Framework
					allRecs = append(allRecs, rec)
				}
			}
			manifest.Files[s.ID] = name
			manifest.Sessions++
			total += s.Len()
		}
		yf := logging.FormatterFor(logging.Yarn)
		for _, rec := range res.YarnRecords {
			yarnLines = append(yarnLines, yf.Render(rec))
		}
	}
	if hp != "" {
		// Interleave by timestamp the way conformance.Spec.Generate does,
		// reshape with the hostile profile, and render the aggregated
		// stream — what a collector would see from a hostile tenant.
		sort.SliceStable(allRecs, func(i, j int) bool { return allRecs[i].Time.Before(allRecs[j].Time) })
		allRecs = workload.ApplyHostile(hp, allRecs, seed+3)
		var b strings.Builder
		for _, rec := range allRecs {
			b.WriteString(formatter.Render(rec))
			b.WriteByte('\n')
		}
		if err := os.WriteFile(filepath.Join(out, "aggregated.log"), []byte(b.String()), 0o644); err != nil {
			return err
		}
		manifest.Aggregated = "aggregated.log"
	}
	if err := os.WriteFile(filepath.Join(out, "yarn-daemon.log"),
		[]byte(strings.Join(yarnLines, "\n")+"\n"), 0o644); err != nil {
		return err
	}
	mf, err := os.Create(filepath.Join(out, "manifest.json"))
	if err != nil {
		return err
	}
	defer mf.Close()
	enc := json.NewEncoder(mf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(manifest); err != nil {
		return err
	}
	hostileNote := ""
	if hp != "" {
		hostileNote = fmt.Sprintf(", hostile=%s", hp)
	}
	fmt.Printf("wrote %d sessions (%d log messages) for %d %s jobs (fault=%s%s) to %s\n",
		manifest.Sessions, total, jobs, fw, fk, hostileNote, out)
	return nil
}

func parseHostile(s string) (workload.HostileProfile, error) {
	if s == "" {
		return "", nil
	}
	hp := workload.HostileProfile(strings.ToLower(s))
	if !hp.Known() {
		return "", fmt.Errorf("unknown hostile profile %q (want one of %v)", s, workload.HostileProfiles())
	}
	return hp, nil
}

func parseFault(s string) (sim.FaultKind, error) {
	for fk := sim.FaultNone; fk <= sim.FaultSlowShutdown; fk++ {
		if fk.String() == strings.ToLower(s) {
			return fk, nil
		}
	}
	return sim.FaultNone, fmt.Errorf("unknown fault %q", s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loggen:", err)
	os.Exit(1)
}
