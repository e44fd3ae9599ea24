package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"intellog/internal/conformance"
	"intellog/internal/core"
	"intellog/internal/detect"
	"intellog/internal/logging"
	"intellog/internal/server"
)

// setupReps is how many times a run trains and boots; setup_s is the
// median, which keeps one slow fork or page-cache miss out of it.
const setupReps = 7

// inputs are a run's generated corpora, written where the CLI reads
// them.
type inputs struct {
	c             *corpus
	sessions      []*logging.Session // the stream's batch view, made after the serving phase
	trainSessions []*logging.Session
	train         string // training corpus directory
	detect        string // ingested corpus as per-session files
}

// generate makes the run's inputs from the seed: enough whole jobs to
// keep the open loop busy for the run's length.
func generate(e env, w workload, seed int64, dur time.Duration) (*inputs, error) {
	in := &inputs{train: filepath.Join(e.work, "train"), detect: filepath.Join(e.work, "detect")}
	in.trainSessions = trainingSessions(w.framework, seed)
	if err := writeSessions(in.train, in.trainSessions); err != nil {
		return nil, fmt.Errorf("write training corpus: %w", err)
	}
	in.c = streamCorpus(w.framework, w.faults, seed, int(w.rate*dur.Seconds()), segments, w.idle+time.Minute)
	return in, nil
}

// boot trains the tenant model with `intellog train` and boots the
// daemon until the tenant accepts its first (empty) batch, reps times,
// each over a fresh state directory. The last daemon is left running.
func boot(e env, w workload, in *inputs, reps int) (d *daemon, modelFile string, times []time.Duration, err error) {
	for i := 0; i < reps; i++ {
		models := filepath.Join(e.work, fmt.Sprintf("models-%d", i))
		state := filepath.Join(e.work, fmt.Sprintf("state-%d", i))
		for _, dir := range []string{models, state} {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, "", nil, err
			}
		}
		modelFile = filepath.Join(models, tenant+".json")
		t0 := time.Now()
		if _, _, err := runCLI(e, "train", "-framework", string(w.framework), "-logs", in.train, "-model", modelFile); err != nil {
			return nil, "", nil, err
		}
		d, err = startDaemon(e, w, models, state, filepath.Join(e.work, fmt.Sprintf("intellogd-%d.log", i)))
		if err != nil {
			return nil, "", nil, err
		}
		if err := d.waitTenant(60 * time.Second); err != nil {
			d.stop()
			return nil, "", nil, err
		}
		times = append(times, time.Since(t0))
		if i < reps-1 {
			if err := d.stop(); err != nil {
				return nil, "", nil, fmt.Errorf("stop intellogd after setup: %w", err)
			}
			os.RemoveAll(state)
		}
	}
	return d, modelFile, times, nil
}

// cliRun is one finished `intellog` child. Its peak RSS is not taken
// from rusage: a child forked from a large process inherits the parent's
// high-water mark there.
type cliRun struct {
	wall time.Duration
	cpu  time.Duration
}

// runCLI runs `intellog <args>` and returns its standard output.
func runCLI(e env, args ...string) (string, cliRun, error) {
	cmd := exec.Command(filepath.Join(e.bin, "intellog"), args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	err := cmd.Start()
	if err == nil {
		done := make(chan struct{})
		untrack := track(cmd.Process, done)
		err = cmd.Wait()
		close(done)
		untrack()
	}
	r := cliRun{wall: time.Since(t0)}
	if err != nil {
		return "", r, fmt.Errorf("intellog %s: %v: %s", args[0], err, strings.TrimSpace(errb.String()))
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return out.String(), r, nil
}

// served is what one serving phase observed.
type served struct {
	ing    *ingestStats
	rd     *readStats
	start  time.Time
	cpu    time.Duration
	hwm    float64
	steal  float64 // share of the machine's CPU time stolen during the phase
	m0, m1 map[string]float64
	queue  []float64
	report detect.Report
}

// serve runs the open loop against the daemon, drains it, and collects
// everything observable from outside: client timings, /metrics before
// and after, /proc CPU and peak RSS, and the drained report.
func serve(w workload, d *daemon, p *plan, rec *recorder, sampleQueue bool) (*served, error) {
	ctl := d.client(oneConn())
	senders := make([]sender, w.conns)
	for i := range senders {
		switch w.wire {
		case "ils1":
			sc, err := ctl.DialStream(d.stream, w.framework)
			if err != nil {
				return nil, fmt.Errorf("dial ILS1: %w", err)
			}
			defer sc.Close()
			senders[i] = sc.Send
		default:
			senders[i] = d.client(oneConn()).IngestRecords
		}
	}
	s := &served{}
	var err error
	if s.m0, err = scrape(ctl); err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	cpu0, err := procCPU(d.pid())
	if err != nil {
		return nil, err
	}
	// The generator must not stall on its own garbage collector, whose
	// cost grows with the corpus it holds live: collect once now, then
	// only if the phase's garbage (read pages, client buffers: about
	// 25 MB per second of run) reaches the headroom.
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(int64(mem.HeapAlloc) + 768<<20))
	tot0, st0 := machineSteal()
	s.start = time.Now().Add(20 * time.Millisecond)
	rd := startReader(d.client(oneConn()), s.start, rec)
	stopSampler := make(chan struct{})
	sampled := make(chan []float64, 1)
	if sampleQueue {
		go sampleQueueDepth(d.client(oneConn()), stopSampler, sampled)
	}
	s.ing = runSenders(p, s.start, senders, ctl, rec)
	cpu1, cerr := procCPU(d.pid())
	tot1, st1 := machineSteal()
	s.steal = ratio(st1-st0, tot1-tot0)
	s.rd = rd.finish()
	close(stopSampler)
	if sampleQueue {
		s.queue = <-sampled
	}
	if s.ing.err != nil {
		return nil, s.ing.err
	}
	if cerr != nil {
		return nil, cerr
	}
	if s.rd.err != nil {
		return nil, fmt.Errorf("read: %w", s.rd.err)
	}
	s.cpu = cpu1 - cpu0
	if s.m1, err = scrape(ctl); err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	if s.hwm, err = procHWM(d.pid()); err != nil {
		return nil, err
	}
	if s.report, err = ctl.Report(); err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	return s, nil
}

// sampleQueueDepth scrapes intellogd_queue_records every 10ms.
func sampleQueueDepth(c *server.Client, stop <-chan struct{}, out chan<- []float64) {
	var vs []float64
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			out <- vs
			return
		case <-tick.C:
			if m, err := scrape(c); err == nil {
				vs = append(vs, m["intellogd_queue_records"])
			}
		}
	}
}

// gate checks a serving phase's outputs: the drained report equals
// offline Model.Detect over the same sessions (canonical form), the
// anomalies cursor showed every finding, and the WAL holds every acked
// record. It returns the reasons the run is wrong, if any.
func gate(in *inputs, s *served, wantRep *detect.Report) []string {
	var bad []string
	if !sameReport(&s.report, wantRep) {
		bad = append(bad, fmt.Sprintf("daemon report (%d sessions, %d findings) differs from offline Model.Detect (%d sessions, %d findings)",
			s.report.Sessions, len(s.report.Anomalies), wantRep.Sessions, len(wantRep.Anomalies)))
	}
	if len(s.rd.found) != len(s.report.Anomalies) {
		bad = append(bad, fmt.Sprintf("anomalies cursor showed %d findings, report has %d", len(s.rd.found), len(s.report.Anomalies)))
	}
	if s.ing.records != len(in.c.recs) {
		bad = append(bad, fmt.Sprintf("acked %d of %d records", s.ing.records, len(in.c.recs)))
	}
	if dw := s.m1["intellogd_wal_seq"] - s.m0["intellogd_wal_seq"]; int(dw) != len(in.c.recs) {
		bad = append(bad, fmt.Sprintf("WAL sequence advanced %d for %d acked records", int(dw), len(in.c.recs)))
	}
	return bad
}

// cliReport renders a report the way `intellog detect` prints it.
func cliReport(rep *detect.Report) string {
	var b strings.Builder
	b.WriteString(rep.Summary())
	for _, a := range rep.Anomalies {
		switch a.Kind {
		case detect.UnexpectedMessage:
			fmt.Fprintf(&b, "  [%s] %s (group %q): %s\n", a.Session, a.Kind, a.Group, a.Record.Message)
		default:
			fmt.Fprintf(&b, "  [%s] %s: %s\n", a.Session, a.Kind, a.Detail)
		}
	}
	return b.String()
}

// offlineSegments is how many leading segments the offline leg runs
// `intellog detect` over, one invocation per segment: enough invocations
// for a steady median rate, each small enough to keep the CLI's memory
// modest.
const offlineSegments = 4

// offline is the offline leg's outcome.
type offline struct {
	recs  int
	wall  time.Duration
	cpu   time.Duration
	rates []float64 // records per second of each invocation
}

// offlineLeg runs the paper's offline path: `intellog detect` over the
// leading segments, each written as per-session log files. Its printed
// report must equal Model.Detect over the same sessions in the CLI's
// order, so the render -> parse -> detect path is checked end to end.
// The files are written only after the serving phase, so their
// writeback cannot compete with it for the disk.
func offlineLeg(e env, w workload, in *inputs, m *core.Model, modelFile string) (offline, []string, error) {
	var o offline
	var bad []string
	start := 0
	for k := 0; k < offlineSegments && k < len(in.c.segEnd); k++ {
		end := in.c.segEnd[k]
		sessions := logging.GroupSessions(in.c.recs[start:end])
		dir := filepath.Join(in.detect, strconv.Itoa(k))
		if err := writeSessions(dir, sessions); err != nil {
			return o, nil, fmt.Errorf("write detection corpus: %w", err)
		}
		printed, run, err := runCLI(e, "detect", "-framework", string(w.framework), "-logs", dir, "-model", modelFile)
		if err != nil {
			return o, nil, err
		}
		sort.Slice(sessions, func(i, j int) bool { return sessions[i].ID < sessions[j].ID })
		if want := cliReport(m.Detect(sessions)); printed != want {
			bad = append(bad, fmt.Sprintf("intellog detect on segment %d printed %d bytes, Model.Detect renders %d", k, len(printed), len(want)))
		}
		o.recs += end - start
		o.rates = append(o.rates, float64(end-start)/run.wall.Seconds())
		o.wall += run.wall
		o.cpu += run.cpu
		start = end
	}
	return o, bad, nil
}

// canonical renders a report in the differential oracle's canonical
// form, where emission order is erased.
func canonical(r *detect.Report) (string, error) {
	b, err := conformance.Canonicalize(r)
	return string(b), err
}

func loadModel(path string) (*core.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.Load(f)
}

// runUntraced is the run every end-to-end metric comes from.
func runUntraced(e env, w workload, seed int64, dur time.Duration) (result, error) {
	in, err := generate(e, w, seed, dur)
	if err != nil {
		return result{}, err
	}
	p := makePlan(in.c, w)
	d, modelFile, setups, err := boot(e, w, in, setupReps)
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	s, err := serve(w, d, p, nil, false)
	if serr := d.stop(); err == nil && serr != nil {
		err = fmt.Errorf("intellogd shutdown: %w", serr)
	}
	if err != nil {
		return result{}, err
	}

	m, err := loadModel(modelFile)
	if err != nil {
		return result{}, err
	}
	in.sessions = logging.GroupSessions(in.c.recs)
	wantRep := m.Detector().DetectParallel(in.sessions, runtime.NumCPU())
	bad := gate(in, s, wantRep)

	off, offBad, err := offlineLeg(e, w, in, m, modelFile)
	if err != nil {
		return result{}, err
	}
	bad = append(bad, offBad...)

	verdict, flushed, err := verdicts(in.c, w, p, s.rd.found)
	if err != nil {
		bad = append(bad, err.Error())
	}
	score := conformance.ScoreReport(&s.report, in.sessions, in.c.truth)
	n := len(in.c.recs)

	out := newMetricSet()
	out.set("setup_s", "s", median(setups).Seconds())
	// The gated metrics are the ones BENCHMARK.json bounds: their
	// run-to-run spread on a shared 2-CPU VM stays inside a bound. The
	// wall-clock figures swing with the host's other tenants by more than
	// any bound the benchmark may set, so they are printed with their
	// sample counts but not gated (README.md has the spreads).
	ackTail, ackG := p99(s.ing.ack)
	verdictTail, verdictG := p99(verdict)
	queryTail, queryG := p99(s.rd.query)
	gated := newMetricSet()
	gated.set("setup_s", "s", median(setups).Seconds())
	gated.set("cpu_us_per_rec", "us", per(s.cpu, n, time.Microsecond))
	gated.set("peak_rss_mb", "MB", s.hwm/(1<<20))
	gated.set("session_f1", "ratio", score.F1)
	shown := newMetricSet()
	shown.set("ack_p50_ms", "ms", pct(durs(s.ing.ack), 0.50))
	shown.set("ack_p99_ms", "ms", ackTail)
	shown.set("verdict_p50_ms", "ms", pct(durs(verdict), 0.50))
	shown.set("verdict_p99_ms", "ms", verdictTail)
	shown.set("query_p50_ms", "ms", pct(durs(s.rd.query), 0.50))
	shown.set("query_p99_ms", "ms", queryTail)
	shown.set("drain_ms", "ms", ms(median(s.ing.drain)))
	shown.set("detect_rec_per_s", "rec/s", pctFloat(off.rates, 0.5))

	attempted := s.ing.attempts + s.rd.attempts
	failed := s.ing.refused + s.ing.failed + s.rd.failed
	if len(bad) > 0 {
		failed++
	}
	fmt.Printf("workload %s: %d records in %d batches over %d connection(s) at %.0f rec/s, %d sessions\n",
		w.name, n, len(p.order), w.conns, w.rate, len(in.sessions))
	fmt.Printf("samples (p99 = median over stretches of >= %d samples): ack=%d in %d stretch(es), verdict=%d in %d (%d more decided by a wave's flush), query=%d in %d, setup=%d, drain=%d\n",
		minTail, len(s.ing.ack), ackG, len(verdict), verdictG, flushed, len(s.rd.query), queryG, len(setups), len(s.ing.drain))
	fmt.Printf("generator: late p50 %.3fms p99 %.3fms; reader late p50 %.3fms p99 %.3fms; machine CPU stolen by the host: %.1f%%\n",
		pct(s.ing.late, 0.5), pct(s.ing.late, 0.99), pct(s.rd.late, 0.5), pct(s.rd.late, 0.99), 100*s.steal)
	fmt.Printf("refused_frac: %.6f (%d refused + %d failed ingests + %d failed reads + failed gate, of %d attempted)\n",
		ratio(float64(failed), float64(attempted)), s.ing.refused, s.ing.failed, s.rd.failed, attempted)
	fmt.Printf("accuracy: %s; offline detect: %d records in %s, %.2f us CPU/rec\n",
		score, off.recs, fmtDur(off.wall), per(off.cpu, off.recs, time.Microsecond))
	if self, err := procHWM(os.Getpid()); err == nil {
		fmt.Printf("benchmark process peak RSS: %.1f MB\n", self/(1<<20))
	}
	for _, b := range bad {
		fmt.Printf("CORRECTNESS GATE FAILED: %s\n", b)
	}
	shown.print("end-to-end metrics, not gated:")
	gated.print("end-to-end metrics:")
	return result{Correct: len(bad) == 0, Attempted: attempted, Failed: failed, Metrics: gated.m}, nil
}
