package main

// CLI-level tests: flag validation, input-loading error paths, and the
// checkpoint-resume mismatch message. The subcommands are exercised
// through their cmdX entry points exactly as main dispatches them, over
// corpora rendered to disk the same way cmd/loggen writes them.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"intellog/internal/core"
	"intellog/internal/detect"
	"intellog/internal/logging"
	"intellog/internal/sim"
	"intellog/internal/workload"
)

// writeLogDir renders clean training sessions into dir, one .log file per
// session (the layout loadSessions expects), and returns the sessions.
func writeLogDir(t *testing.T, dir string, n int) []*logging.Session {
	t.Helper()
	g := workload.NewGenerator(sim.NewCluster(10, 71), 72)
	sessions := g.TrainingCorpus(logging.Spark, n)
	f := logging.FormatterFor(logging.Spark)
	for _, s := range sessions {
		var b strings.Builder
		for _, r := range s.Records {
			b.WriteString(f.Render(r))
			b.WriteByte('\n')
		}
		if err := os.WriteFile(filepath.Join(dir, s.ID+".log"), []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return sessions
}

// writeAggregated renders sessions back-to-back into one file, the
// aggregated-stream layout cmdStream sessionizes on the fly.
func writeAggregated(t *testing.T, path string, sessions []*logging.Session) {
	t.Helper()
	f := logging.FormatterFor(logging.Spark)
	var b strings.Builder
	for _, s := range sessions {
		for _, r := range s.Records {
			b.WriteString(f.Render(r))
			b.WriteByte('\n')
		}
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestTrainDetectStreamRoundTrip(t *testing.T) {
	dir := t.TempDir()
	logs := filepath.Join(dir, "logs")
	if err := os.Mkdir(logs, 0o755); err != nil {
		t.Fatal(err)
	}
	sessions := writeLogDir(t, logs, 2)
	model := filepath.Join(dir, "model.json")

	if err := cmdTrain([]string{"-framework", "spark", "-logs", logs, "-model", model}); err != nil {
		t.Fatalf("train: %v", err)
	}
	if err := cmdDetect([]string{"-framework", "spark", "-logs", logs, "-model", model}); err != nil {
		t.Fatalf("detect: %v", err)
	}

	agg := filepath.Join(dir, "agg.log")
	writeAggregated(t, agg, sessions)
	ckpt := filepath.Join(dir, "ckpt.json")
	err := cmdStream([]string{"-framework", "spark", "-model", model,
		"-input", agg, "-summary-only", "-checkpoint", ckpt, "-checkpoint-every", "50"})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("stream left no checkpoint: %v", err)
	}
	if err := cmdGraph([]string{"-model", model}); err != nil {
		t.Fatalf("graph: %v", err)
	}
	if err := cmdKeys([]string{"-model", model}); err != nil {
		t.Fatalf("keys: %v", err)
	}
	if err := cmdQuery([]string{"-framework", "spark", "-logs", logs, "-model", model, "-groupby", "TASK"}); err != nil {
		t.Fatalf("query: %v", err)
	}
}

// TestParseFrameworkRoster pins the CLI's framework vocabulary,
// including the flink / hdfs / yarn-rm simulators. Every subcommand
// resolves its -framework flag through logging.ParseFramework.
func TestParseFrameworkRoster(t *testing.T) {
	good := map[string]logging.Framework{
		"spark":      logging.Spark,
		"mapreduce":  logging.MapReduce,
		"mr":         logging.MapReduce,
		"tez":        logging.Tez,
		"tensorflow": logging.TensorFlow,
		"tf":         logging.TensorFlow,
		"flink":      logging.Flink,
		"hdfs":       logging.HDFS,
		"HDFS":       logging.HDFS,
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
	for _, in := range []string{"hive", "yarn", "", "hdfs2"} {
		if _, err := logging.ParseFramework(in); err == nil || !strings.Contains(err.Error(), "unknown framework") {
			t.Errorf("ParseFramework(%q) = %v, want unknown-framework error", in, err)
		}
	}
}

// TestTrainDetectNewFramework proves the CLI path works end to end for a
// new simulator: render a flink corpus to disk the way loggen does,
// train on it, and detect over it with -framework flink.
func TestTrainDetectNewFramework(t *testing.T) {
	dir := t.TempDir()
	logs := filepath.Join(dir, "logs")
	if err := os.Mkdir(logs, 0o755); err != nil {
		t.Fatal(err)
	}
	g := workload.NewGenerator(sim.NewCluster(10, 73), 74)
	sessions := g.TrainingCorpus(logging.Flink, 3)
	f := logging.FormatterFor(logging.Flink)
	for _, s := range sessions {
		var b strings.Builder
		for _, r := range s.Records {
			b.WriteString(f.Render(r))
			b.WriteByte('\n')
		}
		if err := os.WriteFile(filepath.Join(logs, s.ID+".log"), []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	model := filepath.Join(dir, "model.json")
	if err := cmdTrain([]string{"-framework", "flink", "-logs", logs, "-model", model}); err != nil {
		t.Fatalf("train: %v", err)
	}
	if err := cmdDetect([]string{"-framework", "flink", "-logs", logs, "-model", model}); err != nil {
		t.Fatalf("detect: %v", err)
	}
}

func TestBadCorpusPaths(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty")
	if err := os.Mkdir(empty, 0o755); err != nil {
		t.Fatal(err)
	}
	model := filepath.Join(dir, "model.json")

	err := cmdTrain([]string{"-framework", "spark", "-logs", filepath.Join(dir, "missing"), "-model", model})
	if err == nil {
		t.Fatal("train on missing dir succeeded")
	}
	err = cmdTrain([]string{"-framework", "spark", "-logs", empty, "-model", model})
	if err == nil || !strings.Contains(err.Error(), "no sessions found in") {
		t.Fatalf("train on empty dir: %v, want 'no sessions found in'", err)
	}

	blank := filepath.Join(dir, "blank.log")
	if err := os.WriteFile(blank, []byte("\n\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err = cmdTrain([]string{"-framework", "spark", "-aggregated", blank, "-model", model})
	if err == nil || !strings.Contains(err.Error(), "no sessions found in aggregated log") {
		t.Fatalf("train on blank aggregated log: %v, want 'no sessions found in aggregated log'", err)
	}

	if err := cmdTrain([]string{"-framework", "hive", "-logs", empty}); err == nil ||
		!strings.Contains(err.Error(), "unknown framework") {
		t.Fatalf("unknown framework: %v", err)
	}
	// bench-serve validates its framework before loading or replaying.
	if err := cmdBenchServe([]string{"-framework", "sprak", "-logs", empty}); err == nil ||
		!strings.Contains(err.Error(), "unknown framework") {
		t.Fatalf("bench-serve unknown framework: %v", err)
	}
}

func TestStreamFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"truncate above 1", []string{"-fault-truncate", "1.5"}, "probability must be in [0, 1]"},
		{"negative corrupt", []string{"-fault-corrupt", "-0.1"}, "probability must be in [0, 1]"},
		{"dup above 1", []string{"-fault-dup", "2"}, "probability must be in [0, 1]"},
		{"negative reorder", []string{"-fault-reorder", "-3"}, "window must be >= 0"},
		{"negative cadence", []string{"-checkpoint", "c.json", "-checkpoint-every", "-1"}, "must be >= 0"},
		{"seed without fault", []string{"-fault-seed", "9"}, "no fault enabled"},
		{"cadence without checkpoint", []string{"-checkpoint-every", "100"}, "-checkpoint-every set without -checkpoint"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			err := cmdStream(tc.args)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("cmdStream(%v) = %v, want error containing %q", tc.args, err, tc.want)
			}
		})
	}
}

func TestStreamCheckpointModelMismatch(t *testing.T) {
	dir := t.TempDir()
	logs := filepath.Join(dir, "logs")
	if err := os.Mkdir(logs, 0o755); err != nil {
		t.Fatal(err)
	}
	sessions := writeLogDir(t, logs, 2)
	m := core.Train(sessions, core.Config{})

	// A checkpoint whose buffered record cannot bind under the stored
	// model — what a checkpoint written against a different model looks
	// like at restore time.
	t0 := time.Date(2019, 3, 2, 10, 0, 0, 0, time.UTC)
	st := &detect.StreamState{
		Seen: 1, NextSeq: 1,
		Latest: t0,
		Sessions: []detect.SessionState{{
			ID: "container_ghost", Framework: logging.Spark,
			First: t0, Last: t0,
			Records: []detect.StampedMessage{{Time: t0, Message: "zzzz never-trained gibberish qqqq"}},
		}},
	}
	ckpt := filepath.Join(dir, "mismatch.json")
	f, err := os.Create(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.SaveCheckpointState(f, m, st, 3, nil); err != nil {
		t.Fatal(err)
	}
	f.Close()

	err = cmdStream([]string{"-framework", "spark", "-checkpoint", ckpt, "-input", filepath.Join(dir, "none.log")})
	if err == nil || !strings.Contains(err.Error(), "checkpoint/model mismatch") {
		t.Fatalf("resume from mismatched checkpoint: %v, want 'checkpoint/model mismatch'", err)
	}
	if !strings.Contains(err.Error(), "resume "+ckpt) {
		t.Fatalf("error does not name the checkpoint: %v", err)
	}
}
