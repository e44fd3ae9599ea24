package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"intellog/internal/analytics"
	"intellog/internal/core"
	"intellog/internal/detect"
	"intellog/internal/extract"
	"intellog/internal/hwgraph"
	"intellog/internal/logging"
	"intellog/internal/nlp"
	"intellog/internal/spell"
	"intellog/internal/wal"
)

// The traced run: the same workload and seed as the untraced run, with
// spans around every client call into the daemon, then a replay of the
// same batches, in daemon arrival order, through the public functions of
// each layer the daemon runs them through: wal.Log.Append ->
// StreamDetector.ConsumeBatch -> analytics.Engine.ObserveBatch, with
// core.SaveCheckpointState at the workload's cadence and Flush at the
// end. The workflow-construction layers (logging, spell, extract,
// hwgraph, core.Train) and batch detection are timed over the run's own
// training and detection corpora. No end-to-end number comes from here.

// spellThreshold is `intellog train`'s default Spell threshold.
const spellThreshold = 1.7

// replayOut is one layer replay's outcome.
type replayOut struct {
	wall       time.Duration
	anomalies  []detect.Anomaly
	flushed    int // sessions still open at the waves' flushes
	ckpts      int
	ckptBytes  int64
	walBytes   int64
	engine     *analytics.Engine
	sessionsIn int
	spans      int // spans the replay recorded
}

// replayLayers feeds every batch through the daemon's layer sequence,
// flushing at each wave's end as the generator does.
// ConsumeBatch runs its resolve stage on one worker so that span time
// approximates CPU time, which is what the spans are reconciled with.
func replayLayers(w workload, m *core.Model, p *plan, rec *recorder, dir string) (*replayOut, error) {
	pol, err := wal.ParseSyncPolicy(w.walSync)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	wl, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{Sync: pol})
	if err != nil {
		return nil, err
	}
	sd := detect.NewStream(m.Detector(), detect.StreamConfig{IdleTimeout: w.idle})
	eng := analytics.NewEngine(analytics.Config{}, m.Graph)
	every := int(w.ckptEvery.Seconds() * w.rate / float64(w.batch))
	out := &replayOut{engine: eng}
	spans0 := rec.count()
	t0 := time.Now()
	flush := func() {
		out.flushed += sd.Pending()
		root := rec.begin("replay.flush", -1, -1)
		sp := rec.begin("detect.StreamDetector.Flush", root, -1)
		rep := sd.Flush()
		rec.end(sp)
		sp = rec.begin("analytics.Engine.ObserveBatch", root, -1)
		eng.ObserveBatch(rep.Anomalies)
		rec.end(sp)
		rec.end(root)
		out.anomalies = append(out.anomalies, rep.Anomalies...)
		out.sessionsIn = rep.Sessions
	}
	for k, b := range p.order {
		if k > 0 && b.seg != p.order[k-1].seg {
			flush()
		}
		root := rec.begin("replay.batch", -1, b.id)
		sp := rec.begin("wal.Log.Append", root, b.id)
		err := wl.Append(b.recs)
		rec.end(sp)
		if err != nil {
			wl.Close()
			return nil, fmt.Errorf("wal append: %w", err)
		}
		sp = rec.begin("detect.StreamDetector.ConsumeBatch", root, b.id)
		as := sd.ConsumeBatch(b.recs, 1)
		rec.end(sp)
		sp = rec.begin("analytics.Engine.ObserveBatch", root, b.id)
		eng.ObserveBatch(as)
		rec.end(sp)
		out.anomalies = append(out.anomalies, as...)
		if every > 0 && (k+1)%every == 0 {
			sp = rec.begin("core.SaveCheckpointState", root, b.id)
			n, err := saveCheckpoint(filepath.Join(dir, "ckpt"), m, sd, eng)
			rec.end(sp)
			if err != nil {
				wl.Close()
				return nil, err
			}
			out.ckpts++
			out.ckptBytes += n
		}
		rec.end(root)
	}
	flush()
	out.wall = time.Since(t0)
	out.spans = rec.count() - spans0
	if err := wl.Close(); err != nil {
		return nil, err
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal", "*"))
	for _, s := range segs {
		if fi, err := os.Stat(s); err == nil {
			out.walBytes += fi.Size()
		}
	}
	return out, nil
}

// saveCheckpoint writes a checkpoint the way the daemon does: stream
// state plus analytics state, fsynced.
func saveCheckpoint(path string, m *core.Model, sd *detect.StreamDetector, eng *analytics.Engine) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	aj, err := eng.StateJSON()
	if err == nil {
		err = core.SaveCheckpointState(f, m, sd.State(), 0, aj)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, fmt.Errorf("checkpoint: %w", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// constructLayers times workflow construction over the training corpus
// stage by stage: Spell consumption, Intel Key extraction, HW-graph
// building; then core.Train end to end.
func constructLayers(train []*logging.Session, rec *recorder) (keys int) {
	parser := spell.NewParser(spellThreshold)
	for _, s := range train {
		for i := range s.Records {
			toks := nlp.Texts(nlp.Tokenize(s.Records[i].Message))
			sp := rec.begin("spell.Parser.Consume", -1, -1)
			parser.Consume(toks)
			rec.end(sp)
		}
	}
	var iks []*extract.IntelKey
	index := map[int]*extract.IntelKey{}
	for _, k := range parser.Keys() {
		sp := rec.begin("extract.BuildIntelKey", -1, -1)
		ik := extract.BuildIntelKey(k)
		rec.end(sp)
		iks = append(iks, ik)
		index[ik.ID] = ik
	}
	b := hwgraph.NewBuilder(iks)
	for _, s := range train {
		msgs := core.BindSessionCached(parser, index, nil, s)
		sp := rec.begin("hwgraph.Builder.AddSession", -1, -1)
		b.AddSession(msgs)
		rec.end(sp)
	}
	sp := rec.begin("core.Train", -1, -1)
	core.Train(train, core.Config{SpellThreshold: spellThreshold})
	rec.end(sp)
	return len(parser.Keys())
}

// runTraced is the traced run: per-layer metrics only.
func runTraced(e env, w workload, seed int64, dur time.Duration) (result, error) {
	in, err := generate(e, w, seed, dur)
	if err != nil {
		return result{}, err
	}
	p := makePlan(in.c, w)
	d, modelFile, _, err := boot(e, w, in, 1)
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	rec := newRecorder()
	s, err := serve(w, d, p, rec, true)
	if serr := d.stop(); err == nil && serr != nil {
		err = fmt.Errorf("intellogd shutdown: %w", serr)
	}
	if err != nil {
		return result{}, err
	}
	n := len(in.c.recs)

	// Reference detection doubles as the batch-detection layer sample.
	m, err := loadModel(modelFile)
	if err != nil {
		return result{}, err
	}
	in.sessions = logging.GroupSessions(in.c.recs)
	sp := rec.begin("detect.Detector.Detect", -1, -1)
	wantRep := m.Detect(in.sessions)
	rec.end(sp)
	bad := gate(in, s, wantRep)

	// Layer replay on a fresh model, with its own lookup cache as the
	// daemon's has.
	m1, err := loadModel(modelFile)
	if err != nil {
		return result{}, err
	}
	rp, err := replayLayers(w, m1, p, rec, filepath.Join(e.work, "replay-traced"))
	if err != nil {
		return result{}, err
	}
	if got := (detect.Report{Sessions: rp.sessionsIn, Anomalies: rp.anomalies}); !sameReport(&got, wantRep) {
		bad = append(bad, fmt.Sprintf("layer replay reported %d findings, Model.Detect %d", len(rp.anomalies), len(wantRep.Anomalies)))
	}
	// Dashboard-side layers over the replay's engine and findings.
	var snaps []time.Duration
	for i := 0; i < 20; i++ {
		sp := rec.begin("analytics.Engine.Snapshot", -1, -1)
		t0 := time.Now()
		rp.engine.Snapshot()
		snaps = append(snaps, time.Since(t0))
		rec.end(sp)
	}
	walks := 0
	for i := range rp.anomalies {
		g := rp.anomalies[i].Group
		if g == "" || walks >= 2000 {
			continue
		}
		sp := rec.begin("hwgraph.Graph.DeviationWalk", -1, -1)
		m1.Graph.DeviationWalk(g, func(x string) bool { return x == g })
		rec.end(sp)
		walks++
	}

	// Workflow construction and raw-line parsing.
	train := in.trainSessions
	keys := constructLayers(train, rec)
	lines := 0
	f := logging.FormatterFor(w.framework)
	for _, sess := range in.sessions {
		var b strings.Builder
		for _, r := range sess.Records {
			b.WriteString(f.Render(r))
			b.WriteByte('\n')
		}
		raw := []byte(b.String())
		sp := rec.begin("logging.ParseLinesBytes", -1, -1)
		lines += len(logging.ParseLinesBytes(f, raw))
		rec.end(sp)
	}

	lt := rec.selfTimes()
	get := func(name string) *layerTime {
		if l := lt[name]; l != nil {
			return l
		}
		return &layerTime{}
	}
	trainLines := 0
	for _, s := range train {
		trainLines += len(s.Records)
	}
	hits := s.m1["intellogd_lookup_cache_hits"] - s.m0["intellogd_lookup_cache_hits"]
	misses := s.m1["intellogd_lookup_cache_misses"] - s.m0["intellogd_lookup_cache_misses"]
	phits := s.m1["intellogd_batch_pool_hits_total"] - s.m0["intellogd_batch_pool_hits_total"]
	pmiss := s.m1["intellogd_batch_pool_misses_total"] - s.m0["intellogd_batch_pool_misses_total"]
	cpuPerRec := per(s.cpu, n, time.Microsecond)

	// The reconciliation: layer self time per record against the
	// daemon's CPU per record.
	budget := []string{
		"wal.Log.Append",
		"detect.StreamDetector.ConsumeBatch",
		"analytics.Engine.ObserveBatch",
		"core.SaveCheckpointState",
		"detect.StreamDetector.Flush",
		"replay.batch",
		"replay.flush",
	}
	var sum float64
	fmt.Printf("reconciliation (layer replay self time per record vs daemon CPU per record):\n")
	fmt.Printf("  %-40s %8s %12s\n", "span", "calls", "self us/rec")
	for _, name := range budget {
		l := get(name)
		v := per(l.self, n, time.Microsecond)
		sum += v
		fmt.Printf("  %-40s %8d %12.4f\n", name, l.calls, v)
	}
	fmt.Printf("  %-40s %8s %12.4f\n", "sum of layer self time", "", sum)
	fmt.Printf("  %-40s %8s %12.4f\n", "cpu_us_per_rec (daemon, traced run)", "", cpuPerRec)
	fmt.Printf("  %-40s %8s %12.4f\n", "bench.unattributed_us_per_rec", "", cpuPerRec-sum)

	out := newMetricSet()
	out.set("server.send_us_per_rec", "us", per(get("client.ingest").self, n, time.Microsecond))
	out.set("server.refused", "count", float64(s.ing.refused))
	out.set("server.queue_records_p99", "count", pctFloat(s.queue, 0.99))
	out.set("server.flush_ms", "ms", ms(median(s.ing.flush)))
	out.set("server.anomalies_ms", "ms", pct(s.rd.anomalies, 0.5))
	out.set("server.clusters_ms", "ms", pct(s.rd.clusters, 0.5))
	out.set("server.explain_ms", "ms", pct(s.rd.explain, 0.5))
	out.set("wal.append_us_per_batch", "us", per(get("wal.Log.Append").self, len(p.order), time.Microsecond))
	out.set("wal.bytes_per_rec", "B", ratio(float64(rp.walBytes), float64(n)))
	out.set("wal.segments", "count", s.m1["intellogd_wal_segments"])
	out.set("detect.consume_ns_per_rec", "ns", per(get("detect.StreamDetector.ConsumeBatch").self, n, time.Nanosecond))
	out.set("detect.finalize_us_per_session", "us", per(get("detect.StreamDetector.Flush").self, rp.flushed, time.Microsecond))
	out.set("detect.detect_ns_per_rec", "ns", per(get("detect.Detector.Detect").self, n, time.Nanosecond))
	out.set("detect.findings", "count", float64(len(rp.anomalies)))
	out.set("spell.lookup_hit_ratio", "ratio", ratio(hits, hits+misses))
	out.set("spell.consume_ns_per_line", "ns", per(get("spell.Parser.Consume").self, trainLines, time.Nanosecond))
	out.set("spell.keys", "count", float64(keys))
	out.set("extract.intel_key_us", "us", per(get("extract.BuildIntelKey").self, get("extract.BuildIntelKey").calls, time.Microsecond))
	out.set("hwgraph.add_session_us", "us", per(get("hwgraph.Builder.AddSession").self, len(train), time.Microsecond))
	out.set("hwgraph.walk_us", "us", per(get("hwgraph.Graph.DeviationWalk").self, walks, time.Microsecond))
	out.set("core.train_s", "s", get("core.Train").total.Seconds())
	out.set("core.checkpoint_ms", "ms", per(get("core.SaveCheckpointState").self, rp.ckpts, time.Millisecond))
	out.set("core.checkpoint_bytes", "B", ratio(float64(rp.ckptBytes), float64(rp.ckpts)))
	out.set("core.checkpoints", "count", s.m1["intellogd_checkpoints_total"]-s.m0["intellogd_checkpoints_total"])
	out.set("analytics.observe_us_per_anomaly", "us", per(get("analytics.Engine.ObserveBatch").self, len(rp.anomalies), time.Microsecond))
	out.set("analytics.snapshot_ms", "ms", ms(median(snaps)))
	out.set("batch.pool_hit_ratio", "ratio", ratio(phits, phits+pmiss))
	out.set("logging.parse_ns_per_line", "ns", per(get("logging.ParseLinesBytes").self, lines, time.Nanosecond))
	out.set("runtime.allocs_per_rec", "count", ratio(s.m1["intellogd_mallocs_total"]-s.m0["intellogd_mallocs_total"], float64(n)))
	out.set("runtime.gc_cpu_fraction", "ratio", s.m1["intellogd_gc_cpu_fraction"])
	out.set("runtime.gc_cycles", "count", s.m1["intellogd_gc_cycles_total"]-s.m0["intellogd_gc_cycles_total"])
	out.set("bench.late_p99_ms", "ms", pct(s.ing.late, 0.99))
	cost := spanCost()
	out.set("bench.trace_overhead_frac", "ratio", ratio(float64(cost)*float64(rp.spans), float64(rp.wall)))
	out.set("bench.traced_cpu_us_per_rec", "us", cpuPerRec)
	out.set("bench.unattributed_us_per_rec", "us", cpuPerRec-sum)

	path := filepath.Join(e.traces, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := rec.dump(path); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	attempted := s.ing.attempts + s.rd.attempts
	failed := s.ing.refused + s.ing.failed + s.rd.failed
	if len(bad) > 0 {
		failed++
	}
	for _, b := range bad {
		fmt.Printf("CORRECTNESS GATE FAILED: %s\n", b)
	}
	fmt.Printf("spans: %d written to %s; the replay recorded %d in %s at %s each\n",
		len(rec.spans), path, rp.spans, fmtDur(rp.wall), cost)
	out.print("per-layer metrics:")
	return result{Correct: len(bad) == 0, Attempted: attempted, Failed: failed, Metrics: out.m}, nil
}

// sameReport compares two reports in the oracle's canonical form.
func sameReport(a, b *detect.Report) bool {
	x, err1 := canonical(a)
	y, err2 := canonical(b)
	return err1 == nil && err2 == nil && x == y
}
