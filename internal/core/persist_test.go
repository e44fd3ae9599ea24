package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"intellog/internal/detect"
	"intellog/internal/logging"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	m := trainMini(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(loaded.Keys) != len(m.Keys) {
		t.Errorf("keys: %d vs %d", len(loaded.Keys), len(m.Keys))
	}
	if len(loaded.Graph.Nodes) != len(m.Graph.Nodes) {
		t.Errorf("nodes: %d vs %d", len(loaded.Graph.Nodes), len(m.Graph.Nodes))
	}
	// The loaded model must detect identically.
	clean := miniSession("container_rt", 70)
	if got := loaded.Detect([]*logging.Session{clean}); len(got.Anomalies) != 0 {
		for _, a := range got.Anomalies {
			t.Logf("anomaly: %s %s %s", a.Kind, a.Group, a.Detail)
		}
		t.Errorf("loaded model flags clean session")
	}
	killed := miniSession("container_rk", 80)
	killed.Records = killed.Records[:4]
	origN := len(m.Detect([]*logging.Session{killed}).Anomalies)
	loadN := len(loaded.Detect([]*logging.Session{killed}).Anomalies)
	if origN == 0 || origN != loadN {
		t.Errorf("detection differs after reload: %d vs %d", origN, loadN)
	}
	// Unexpected-message extraction still works through the loaded model.
	s := miniSession("container_ru", 90)
	s.Records[3].Message = "Failed to connect to host9:13562 for block fetch"
	rep := loaded.Detect([]*logging.Session{s})
	if len(rep.ByKind(detect.UnexpectedMessage)) == 0 {
		t.Error("loaded model misses unexpected messages")
	}
}

// checkpointCorpus interleaves a clean, a truncated, and an anomalous
// session into one record stream, round-robin (the aggregated-log shape
// the online mode consumes).
func checkpointCorpus() []logging.Record {
	clean := miniSession("container_a", 30)
	truncated := miniSession("container_b", 40)
	truncated.Records = truncated.Records[:4]
	odd := miniSession("container_c", 50)
	odd.Records[3].Message = "Failed to connect to host9:13562 for block fetch"
	var recs []logging.Record
	for i := 0; ; i++ {
		emitted := false
		for _, s := range []*logging.Session{clean, truncated, odd} {
			if i < len(s.Records) {
				recs = append(recs, s.Records[i])
				emitted = true
			}
		}
		if !emitted {
			return recs
		}
	}
}

// TestCheckpointRestoreByteIdenticalReport kills a streaming detector
// mid-corpus, persists model + in-flight state through SaveCheckpointState,
// restores both in a "new process" via LoadCheckpointState, and finishes the
// corpus: every finding and the final summary must be byte-identical to
// an uninterrupted run.
func TestCheckpointRestoreByteIdenticalReport(t *testing.T) {
	m := trainMini(t)
	cfg := detect.StreamConfig{IdleTimeout: time.Minute, MaxSessionMsgs: 32}
	recs := checkpointCorpus()

	run := func(consume func(sd *detect.StreamDetector, emit func([]detect.Anomaly)) *detect.Report) (string, string) {
		t.Helper()
		var all []detect.Anomaly
		emit := func(a []detect.Anomaly) { all = append(all, a...) }
		sd := detect.NewStream(m.Detector(), cfg)
		rep := consume(sd, emit)
		emit(rep.Anomalies)
		raw, err := json.Marshal(all)
		if err != nil {
			t.Fatalf("marshal findings: %v", err)
		}
		return string(raw), rep.Summary()
	}

	wantFindings, wantSummary := run(func(sd *detect.StreamDetector, emit func([]detect.Anomaly)) *detect.Report {
		for _, r := range recs {
			emit(sd.Consume(r))
		}
		return sd.Flush()
	})

	// Interrupted run: consume half, checkpoint, "restart", finish.
	cut := len(recs) / 2
	var all []detect.Anomaly
	sd := detect.NewStream(m.Detector(), cfg)
	for _, r := range recs[:cut] {
		all = append(all, sd.Consume(r)...)
	}
	var ckpt bytes.Buffer
	if err := SaveCheckpointState(&ckpt, m, sd.State(), 0, nil); err != nil {
		t.Fatalf("SaveCheckpointState: %v", err)
	}
	m2, st, _, _, err := LoadCheckpointState(&ckpt)
	if err != nil {
		t.Fatalf("LoadCheckpointState: %v", err)
	}
	sd2, err := detect.RestoreStreamDetector(m2.Detector(), cfg, st)
	if err != nil {
		t.Fatalf("RestoreStreamDetector: %v", err)
	}
	if sd2.Pending() != sd.Pending() {
		t.Fatalf("restored Pending = %d, want %d", sd2.Pending(), sd.Pending())
	}
	for _, r := range recs[cut:] {
		all = append(all, sd2.Consume(r)...)
	}
	rep := sd2.Flush()
	all = append(all, rep.Anomalies...)
	raw, err := json.Marshal(all)
	if err != nil {
		t.Fatalf("marshal findings: %v", err)
	}

	if string(raw) != wantFindings {
		t.Errorf("findings diverge after checkpoint/restore:\ngot:  %s\nwant: %s", raw, wantFindings)
	}
	if got := rep.Summary(); got != wantSummary {
		t.Errorf("summary diverges after checkpoint/restore:\ngot:  %q\nwant: %q", got, wantSummary)
	}
}

// TestCheckpointIndentedFormResumes pins checkpoint format compatibility:
// checkpoints are written compact, and one in the older indented form
// must still load and resume to byte-identical findings.
func TestCheckpointIndentedFormResumes(t *testing.T) {
	m := trainMini(t)
	cfg := detect.StreamConfig{IdleTimeout: time.Minute, MaxSessionMsgs: 32}
	recs := checkpointCorpus()
	cut := len(recs) / 2
	sd := detect.NewStream(m.Detector(), cfg)
	for _, r := range recs[:cut] {
		sd.Consume(r)
	}
	var compact bytes.Buffer
	if err := SaveCheckpointState(&compact, m, sd.State(), int64(cut), nil); err != nil {
		t.Fatalf("SaveCheckpointState: %v", err)
	}
	if n := bytes.Count(compact.Bytes(), []byte("\n")); n != 1 {
		t.Fatalf("checkpoint spans %d lines, want one compact line", n)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, compact.Bytes(), "", " "); err != nil {
		t.Fatalf("indent: %v", err)
	}

	resume := func(ckpt []byte) string {
		t.Helper()
		m2, st, cursor, _, err := LoadCheckpointState(bytes.NewReader(ckpt))
		if err != nil {
			t.Fatalf("LoadCheckpointState: %v", err)
		}
		sd2, err := detect.RestoreStreamDetector(m2.Detector(), cfg, st)
		if err != nil {
			t.Fatalf("RestoreStreamDetector: %v", err)
		}
		var all []detect.Anomaly
		for _, r := range recs[cursor:] {
			all = append(all, sd2.Consume(r)...)
		}
		rep := sd2.Flush()
		all = append(all, rep.Anomalies...)
		raw, err := json.Marshal(all)
		if err != nil {
			t.Fatalf("marshal findings: %v", err)
		}
		return string(raw) + rep.Summary()
	}
	want := resume(compact.Bytes())
	if got := resume(indented.Bytes()); got != want {
		t.Errorf("indented checkpoint resumes differently:\ngot:  %s\nwant: %s", got, want)
	}
}

func TestCheckpointCursorRoundTrip(t *testing.T) {
	m := trainMini(t)
	sd := detect.NewStream(m.Detector(), detect.StreamConfig{})
	var buf bytes.Buffer
	if err := SaveCheckpointState(&buf, m, sd.State(), 4242, nil); err != nil {
		t.Fatalf("SaveCheckpointState: %v", err)
	}
	if _, _, cur, _, err := LoadCheckpointState(&buf); err != nil || cur != 4242 {
		t.Fatalf("LoadCheckpointState = cursor %d, err %v; want 4242, nil", cur, err)
	}
}

// TestCheckpointFsyncFaultInjection simulates a disk that accepts
// writes but dies at fsync: WriteCheckpointFile must surface the error,
// leave the previous checkpoint byte-intact, and clean up its temp file
// — the atomic-replace contract power loss depends on.
func TestCheckpointFsyncFaultInjection(t *testing.T) {
	m := trainMini(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "acme.ckpt")
	recs := checkpointCorpus()
	sd := detect.NewStream(m.Detector(), detect.StreamConfig{})
	for _, r := range recs[:3] {
		sd.Consume(r)
	}
	if err := WriteCheckpointFile(path, m, sd.State(), 3, nil); err != nil {
		t.Fatalf("healthy checkpoint: %v", err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// The disk dies. More records arrive; the checkpoint attempt must
	// fail loudly and leave the good checkpoint alone.
	dead := errors.New("injected fsync failure")
	orig := fileSync
	fileSync = func(*os.File) error { return dead }
	defer func() { fileSync = orig }()

	for _, r := range recs[3:6] {
		sd.Consume(r)
	}
	if err := WriteCheckpointFile(path, m, sd.State(), 6, nil); !errors.Is(err, dead) {
		t.Fatalf("WriteCheckpointFile under fsync failure = %v, want the injected error", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("previous checkpoint gone after failed save: %v", err)
	}
	if !bytes.Equal(good, after) {
		t.Fatal("failed checkpoint attempt modified the previous checkpoint")
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("failed checkpoint left temp files behind: %v", tmps)
	}

	// Disk recovers; the next checkpoint goes through and advances.
	fileSync = orig
	if err := WriteCheckpointFile(path, m, sd.State(), 6, nil); err != nil {
		t.Fatalf("post-recovery checkpoint: %v", err)
	}
	recovered, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(recovered, good) {
		t.Fatal("post-recovery checkpoint did not advance past the pre-failure one")
	}
}

func TestCheckpointRejectsBadInput(t *testing.T) {
	if _, _, _, _, err := LoadCheckpointState(strings.NewReader("{")); err == nil {
		t.Error("truncated checkpoint accepted")
	}
	if _, _, _, _, err := LoadCheckpointState(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Error("wrong version accepted")
	}
	if _, _, _, _, err := LoadCheckpointState(strings.NewReader(`{"version": 1}`)); err == nil {
		t.Error("checkpoint without stream state accepted")
	}
}

func TestLoadRejectsBadInput(t *testing.T) {
	if _, err := Load(strings.NewReader("{")); err == nil {
		t.Error("truncated JSON accepted")
	}
	if _, err := Load(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Error("wrong version accepted")
	}
	if _, err := Load(strings.NewReader(`{"version": 1}`)); err == nil {
		t.Error("model without graph accepted")
	}
}
