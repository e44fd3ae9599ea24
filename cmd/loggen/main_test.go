package main

// CLI-level tests for loggen: flag parsing across the full framework
// roster (including the flink / hdfs / yarn-rm simulators), hostile
// profile validation error paths, and the run() output contract — per-session files + manifest, plus the
// aggregated hostile stream.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"intellog/internal/logging"
	"intellog/internal/sim"
	"intellog/internal/workload"
)

// TestParseFramework pins the -framework vocabulary loggen accepts; the
// flag is resolved through logging.ParseFramework.
func TestParseFramework(t *testing.T) {
	good := map[string]logging.Framework{
		"spark":      logging.Spark,
		"mapreduce":  logging.MapReduce,
		"mr":         logging.MapReduce,
		"tez":        logging.Tez,
		"tensorflow": logging.TensorFlow,
		"tf":         logging.TensorFlow,
		"flink":      logging.Flink,
		"FLINK":      logging.Flink,
		"hdfs":       logging.HDFS,
		"yarn-rm":    logging.YarnRM,
		"yarnrm":     logging.YarnRM,
	}
	for in, want := range good {
		fw, err := logging.ParseFramework(in)
		if err != nil {
			t.Errorf("ParseFramework(%q): %v", in, err)
		} else if fw != want {
			t.Errorf("ParseFramework(%q) = %s, want %s", in, fw, want)
		}
	}
	for _, in := range []string{"hive", "yarn", "", "flinkk"} {
		if _, err := logging.ParseFramework(in); err == nil || !strings.Contains(err.Error(), "unknown framework") {
			t.Errorf("ParseFramework(%q) = %v, want unknown-framework error", in, err)
		}
	}
}

func TestParseHostile(t *testing.T) {
	if hp, err := parseHostile(""); err != nil || hp != "" {
		t.Errorf("parseHostile(\"\") = %q, %v; want empty, nil", hp, err)
	}
	for _, p := range workload.HostileProfiles() {
		hp, err := parseHostile(string(p))
		if err != nil || hp != p {
			t.Errorf("parseHostile(%q) = %q, %v", p, hp, err)
		}
	}
	if hp, err := parseHostile("BURST"); err != nil || hp != workload.HostileBurst {
		t.Errorf("parseHostile(\"BURST\") = %q, %v; case folding broken", hp, err)
	}
	for _, in := range []string{"flood", "skewww", "burst,skew"} {
		if _, err := parseHostile(in); err == nil || !strings.Contains(err.Error(), "unknown hostile profile") {
			t.Errorf("parseHostile(%q) = %v, want unknown-profile error", in, err)
		}
	}
}

type manifest struct {
	Framework  string            `json:"framework"`
	Fault      string            `json:"fault"`
	Hostile    string            `json:"hostile"`
	Jobs       int               `json:"jobs"`
	Sessions   int               `json:"sessions"`
	Affected   map[string]bool   `json:"affected"`
	Files      map[string]string `json:"files"`
	Aggregated string            `json:"aggregated"`
}

func readManifest(t *testing.T, dir string) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRunNewFrameworks drives run() end to end for each new simulator:
// session files must exist, parse back under the framework's formatter,
// and the fault-affected ground truth must be non-empty on a kill run.
func TestRunNewFrameworks(t *testing.T) {
	for _, fw := range []logging.Framework{logging.Flink, logging.HDFS, logging.YarnRM} {
		fw := fw
		t.Run(string(fw), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			if err := run(fw, sim.FaultKill, "", 2, dir, 11, 8); err != nil {
				t.Fatalf("run: %v", err)
			}
			m := readManifest(t, dir)
			if m.Framework != string(fw) || m.Sessions == 0 {
				t.Fatalf("manifest: framework=%q sessions=%d", m.Framework, m.Sessions)
			}
			if len(m.Affected) == 0 {
				t.Fatalf("kill run produced no fault-affected sessions for %s", fw)
			}
			if m.Aggregated != "" {
				t.Fatalf("non-hostile run wrote aggregated stream %q", m.Aggregated)
			}
			formatter := logging.FormatterFor(fw)
			for sid, name := range m.Files {
				data, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				recs := logging.ParseLinesBytes(formatter, data)
				if len(recs) == 0 {
					t.Fatalf("session file %s for %s parses to no records", name, sid)
				}
			}
		})
	}
}

// TestRunHostileAggregated: a hostile run writes the reshaped aggregated
// stream next to the session files, deterministically per seed.
func TestRunHostileAggregated(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	for _, dir := range []string{dirA, dirB} {
		if err := run(logging.Spark, sim.FaultNone, workload.HostileBurst, 2, dir, 21, 8); err != nil {
			t.Fatalf("run: %v", err)
		}
	}
	m := readManifest(t, dirA)
	if m.Hostile != string(workload.HostileBurst) || m.Aggregated != "aggregated.log" {
		t.Fatalf("manifest hostile=%q aggregated=%q", m.Hostile, m.Aggregated)
	}
	a, err := os.ReadFile(filepath.Join(dirA, "aggregated.log"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dirB, "aggregated.log"))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("aggregated hostile stream differs across identical runs")
	}
	recs := logging.ParseLinesBytes(logging.FormatterFor(logging.Spark), a)
	if len(recs) == 0 {
		t.Fatal("aggregated.log parses to no records")
	}
	// The per-session line count must survive the reshaping: burst is
	// time-only, so the aggregated stream carries every session record.
	perSession := 0
	for _, name := range m.Files {
		data, err := os.ReadFile(filepath.Join(dirA, name))
		if err != nil {
			t.Fatal(err)
		}
		perSession += len(logging.ParseLinesBytes(logging.FormatterFor(logging.Spark), data))
	}
	if len(recs) != perSession {
		t.Fatalf("aggregated stream has %d records, session files hold %d", len(recs), perSession)
	}
}
