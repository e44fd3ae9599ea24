package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"intellog/internal/detect"
	"intellog/internal/logging"
	"intellog/internal/server"
)

// The open-loop generator. Record i of a segment is created at i/rate
// seconds after the segment's start; a batch is due when its last record
// has been created, and is sent then no matter how the daemon is doing,
// so a stall delays every later batch and shows in their latency. A
// batch is timed from its due time, or from when the generator woke for
// it if it had to sleep: the sleep's overshoot is the generator's timer
// slack, not a wait the daemon imposed, and is reported on its own as
// lateness.
// Sessions are hash-sharded across connections, each of which sends its
// batches in due order and waits for each ack. A refused batch is
// retried after the daemon's Retry-After; the wait counts toward its
// latency. After a segment's last ack the daemon is drained with
// /v1/flush; the next segment is due segmentPause after the previous one
// and is not sent before that flush returns.

// segments is the number of job waves per run: each ends with a drain,
// so drain_ms is the median of this many samples.
const segments = 8

// segmentPause is the quiet time between waves, longer than a drain.
const segmentPause = 250 * time.Millisecond

// sendBatch is one planned ingest call.
type sendBatch struct {
	id   int // global batch number, the span id of the traced run
	seg  int
	recs []logging.Record
	due  time.Duration // offset from the start of the run
	from time.Time     // when its latency clock started, set once sent
}

// timed is one latency sample and when it was taken.
type timed struct {
	at time.Time
	d  time.Duration
}

// plan is the whole run's schedule.
type plan struct {
	conns [][]sendBatch
	// order lists every batch by due time: the daemon's arrival order,
	// which the traced run's layer replay follows.
	order []*sendBatch
	// byID indexes the batches by id; recBatch is each record's batch,
	// whose latency clock starts the verdict latency of findings the
	// record decides.
	byID     []*sendBatch
	recBatch []int32
}

func makePlan(c *corpus, w workload) *plan {
	recs := c.recs
	p := &plan{conns: make([][]sendBatch, w.conns), recBatch: make([]int32, len(recs))}
	id := 0
	var segOff time.Duration
	start := 0
	for k, end := range c.segEnd {
		perConn := make([][]int, w.conns)
		for i := start; i < end; i++ {
			conn := 0
			if w.conns > 1 {
				h := fnv.New32a()
				h.Write([]byte(recs[i].SessionID))
				conn = int(h.Sum32() % uint32(w.conns))
			}
			perConn[conn] = append(perConn[conn], i)
		}
		for conn, idx := range perConn {
			for off := 0; off < len(idx); off += w.batch {
				hi := min(off+w.batch, len(idx))
				due := segOff + time.Duration(float64(idx[hi-1]-start+1)/w.rate*float64(time.Second))
				b := sendBatch{id: id, seg: k, due: due}
				if w.conns == 1 {
					b.recs = recs[idx[off] : idx[hi-1]+1]
				} else {
					b.recs = make([]logging.Record, 0, hi-off)
				}
				for _, i := range idx[off:hi] {
					if w.conns > 1 {
						b.recs = append(b.recs, recs[i])
					}
					p.recBatch[i] = int32(id)
				}
				p.conns[conn] = append(p.conns[conn], b)
				id++
			}
		}
		segOff += time.Duration(float64(end-start)/w.rate*float64(time.Second)) + segmentPause
		start = end
	}
	for c := range p.conns {
		for i := range p.conns[c] {
			p.order = append(p.order, &p.conns[c][i])
		}
	}
	p.byID = make([]*sendBatch, id)
	for _, b := range p.order {
		p.byID[b.id] = b
	}
	sort.SliceStable(p.order, func(i, j int) bool { return p.order[i].due < p.order[j].due })
	return p
}

// ingestStats is what the senders observed.
type ingestStats struct {
	mu       sync.Mutex
	ack      []timed         // latency clock start -> ack, per batch
	late     []time.Duration // due -> first send, per batch
	call     []time.Duration // duration of each ingest call (all attempts)
	drain    []time.Duration // last ack of a segment -> its flush returned
	flush    []time.Duration // flush call durations
	lastAck  time.Time
	records  int
	attempts int
	refused  int
	failed   int
	err      error
}

func (st *ingestStats) fail(err error) {
	st.failed++
	if st.err == nil {
		st.err = err
	}
}

// sender is one load connection's ingest call.
type sender func(recs []logging.Record) (server.IngestResponse, error)

// runSenders drives every connection's schedule from start, draining the
// daemon after each segment, and returns once the last drain is done (or
// an ingest failed).
func runSenders(p *plan, start time.Time, senders []sender, ctl *server.Client, rec *recorder) *ingestStats {
	st := &ingestStats{}
	acked := make([]sync.WaitGroup, segments)
	release := make([]chan struct{}, segments)
	for k := range release {
		acked[k].Add(len(p.conns))
		release[k] = make(chan struct{})
	}
	var wg sync.WaitGroup
	for c := range p.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			bs := p.conns[c]
			for k := 0; k < segments; k++ {
				for len(bs) > 0 && bs[0].seg == k {
					if !sendOne(&bs[0], start, senders[c], st, rec) {
						bs = nil
						break
					}
					bs = bs[1:]
				}
				acked[k].Done()
				<-release[k]
			}
		}(c)
	}
	for k := 0; k < segments; k++ {
		acked[k].Wait()
		st.mu.Lock()
		ok, last := st.err == nil, st.lastAck
		st.mu.Unlock()
		if ok {
			sp := rec.begin("client.flush", -1, -1)
			t0 := time.Now()
			_, err := ctl.Flush()
			end := time.Now()
			rec.end(sp)
			st.mu.Lock()
			if err != nil {
				st.fail(fmt.Errorf("flush: %w", err))
			} else {
				st.flush = append(st.flush, end.Sub(t0))
				st.drain = append(st.drain, end.Sub(last))
			}
			st.mu.Unlock()
		}
		close(release[k])
	}
	wg.Wait()
	return st
}

// sendOne sends one batch when it is due, retrying refusals, and
// reports whether it was acked in full.
func sendOne(b *sendBatch, start time.Time, send sender, st *ingestStats, rec *recorder) bool {
	due := start.Add(b.due)
	b.from = due
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
		b.from = time.Now()
	}
	first := time.Now()
	for {
		sp := rec.begin("client.ingest", -1, b.id)
		t0 := time.Now()
		resp, err := send(b.recs)
		dur := time.Since(t0)
		rec.end(sp)
		st.mu.Lock()
		st.attempts++
		st.call = append(st.call, dur)
		var qf server.ErrQueueFull
		if errors.As(err, &qf) {
			st.refused++
			st.mu.Unlock()
			time.Sleep(qf.RetryAfter)
			continue
		}
		if err == nil && (resp.Accepted != len(b.recs) || resp.Skipped != 0 || resp.DeadLettered != 0) {
			err = fmt.Errorf("batch %d: accepted %d of %d (skipped %d, dead-lettered %d)",
				b.id, resp.Accepted, len(b.recs), resp.Skipped, resp.DeadLettered)
		}
		if err != nil {
			st.fail(fmt.Errorf("ingest: %w", err))
			st.mu.Unlock()
			return false
		}
		now := time.Now()
		st.ack = append(st.ack, timed{at: due, d: now.Sub(b.from)})
		st.late = append(st.late, first.Sub(due))
		st.records += len(b.recs)
		if now.After(st.lastAck) {
			st.lastAck = now
		}
		st.mu.Unlock()
		return true
	}
}

// seen is one finding as the reader first saw it.
type seen struct {
	a  detect.Anomaly
	at time.Time
}

// readStats is what the reader observed.
type readStats struct {
	query     []timed         // latency clock start -> response, every read
	anomalies []time.Duration // call durations by endpoint
	clusters  []time.Duration
	explain   []time.Duration
	late      []time.Duration
	attempts  int
	failed    int
	err       error
	found     []seen
	cursor    uint64
}

// reader polls the dashboard endpoints on its own fixed schedule over
// one connection until stop closes, then pages the anomaly log to its
// end once more.
type reader struct {
	c     *server.Client
	rec   *recorder
	stats readStats
	stop  chan struct{}
	done  chan struct{}
}

func startReader(c *server.Client, start time.Time, rec *recorder) *reader {
	r := &reader{c: c, rec: rec, stop: make(chan struct{}), done: make(chan struct{})}
	go r.loop(start)
	return r
}

func (r *reader) loop(start time.Time) {
	defer close(r.done)
	every := int(dashEvery / readEvery)
	for slot := 0; ; slot++ {
		due := start.Add(time.Duration(slot) * readEvery)
		from := due
		if d := time.Until(due); d > 0 {
			select {
			case <-r.stop:
				r.poll(time.Time{})
				return
			case <-time.After(d):
			}
			from = time.Now()
		} else {
			select {
			case <-r.stop:
				r.poll(time.Time{})
				return
			default:
			}
		}
		r.stats.late = append(r.stats.late, time.Since(due))
		r.poll(from)
		if slot%every == 0 {
			r.dashboard(from)
		}
	}
}

// poll reads the anomalies cursor to its end. from starts the read's
// latency clock; a zero from marks the final read after the drain,
// which is not a dashboard sample.
func (r *reader) poll(from time.Time) {
	for {
		sp := r.rec.begin("client.anomalies", -1, -1)
		t0 := time.Now()
		page, err := r.c.Anomalies(r.stats.cursor, 1000)
		now := time.Now()
		r.rec.end(sp)
		r.stats.attempts++
		if err != nil {
			r.fail(err)
			return
		}
		if !from.IsZero() {
			r.stats.anomalies = append(r.stats.anomalies, now.Sub(t0))
			r.stats.query = append(r.stats.query, timed{at: from, d: now.Sub(from)})
		}
		for _, sa := range page.Anomalies {
			r.stats.found = append(r.stats.found, seen{a: sa.Anomaly, at: now})
		}
		r.stats.cursor = page.Next
		if len(page.Anomalies) < 1000 {
			return
		}
	}
}

// dashboard reads the clusters page and explains the newest finding.
func (r *reader) dashboard(from time.Time) {
	sp := r.rec.begin("client.clusters", -1, -1)
	t0 := time.Now()
	_, err := r.c.Clusters(0, 100)
	now := time.Now()
	r.rec.end(sp)
	r.stats.attempts++
	if err != nil {
		r.fail(err)
		return
	}
	r.stats.clusters = append(r.stats.clusters, now.Sub(t0))
	r.stats.query = append(r.stats.query, timed{at: from, d: now.Sub(from)})
	if r.stats.cursor == 0 {
		return
	}
	sp = r.rec.begin("client.explain", -1, -1)
	t0 = time.Now()
	_, err = r.c.Explain(r.stats.cursor)
	now = time.Now()
	r.rec.end(sp)
	r.stats.attempts++
	if err != nil {
		r.fail(err)
		return
	}
	r.stats.explain = append(r.stats.explain, now.Sub(t0))
	r.stats.query = append(r.stats.query, timed{at: from, d: now.Sub(from)})
}

func (r *reader) fail(err error) {
	r.stats.failed++
	if r.stats.err == nil {
		r.stats.err = err
	}
}

// finish stops the reader after its final read and returns its stats.
func (r *reader) finish() *readStats {
	close(r.stop)
	<-r.done
	return &r.stats
}

// verdicts maps each finding the reader saw to the record that made it
// decidable and returns latencies from that record's batch latency
// clock to the poll that showed the finding. A finding with no such
// record was decided by a wave's flush and is only counted.
func verdicts(c *corpus, w workload, p *plan, found []seen) (lat []timed, flushed int, err error) {
	used := map[int32]bool{}
	for _, f := range found {
		i, ok := trigger(c, w, &f.a, used)
		if !ok {
			flushed++
			continue
		}
		from := p.byID[p.recBatch[i]].from
		d := f.at.Sub(from)
		if d < 0 {
			return nil, 0, fmt.Errorf("finding in session %s seen %s before its deciding record was sent", f.a.Session, -d)
		}
		lat = append(lat, timed{at: from, d: d})
	}
	return lat, flushed, nil
}

// trigger finds the index of the record that makes a finding
// decidable: the offending record of an unexpected message, or for a
// structural finding the first record whose timestamp passes the
// session's last record time plus the idle timeout.
func trigger(c *corpus, w workload, a *detect.Anomaly, used map[int32]bool) (int32, bool) {
	idx := c.bySess[a.Session]
	if len(idx) == 0 {
		return 0, false
	}
	if a.Kind == detect.UnexpectedMessage && a.Record != nil {
		for _, i := range idx {
			r := &c.recs[i]
			if !used[i] && r.Time.Equal(a.Record.Time) && r.Message == a.Record.Message {
				used[i] = true
				return i, true
			}
		}
		return 0, false
	}
	if w.idle <= 0 {
		return 0, false
	}
	// The stream is in timestamp order, so the session's last record
	// holds its newest time.
	last := int(idx[len(idx)-1])
	cut := c.recs[last].Time.UnixNano() + int64(w.idle)
	end := c.segEnd[c.segmentOf(last)]
	lo, hi := last, end
	for lo < hi {
		m := (lo + hi) / 2
		if c.recs[m].Time.UnixNano() > cut {
			hi = m
		} else {
			lo = m + 1
		}
	}
	if lo >= end {
		return 0, false
	}
	return int32(lo), true
}
