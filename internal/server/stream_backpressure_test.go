package server

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"intellog/internal/conformance"
	"intellog/internal/logging"
)

// bootStreamServer builds a Server with the spark reference model for
// tenant "acme" and exposes its binary ingest listener.
func bootStreamServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.ModelDir == "" {
		cfg.ModelDir = t.TempDir()
		f, err := os.Create(filepath.Join(cfg.ModelDir, "acme.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := conformance.ModelFor(logging.Spark).Save(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if cfg.DefaultFramework == "" {
		cfg.DefaultFramework = logging.Spark
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go s.ServeStream(ln)
	return s, ln.Addr().String()
}

func sparkRecs(session string, n int) []logging.Record {
	recs := make([]logging.Record, n)
	for i := range recs {
		recs[i] = logging.Record{
			Time:      time.Date(2026, 3, 1, 12, 0, i, 0, time.UTC),
			Level:     logging.Info,
			Source:    "BlockManager",
			Message:   fmt.Sprintf("Registering block manager 10.0.0.%d", i),
			Framework: logging.Spark,
			SessionID: session,
		}
	}
	return recs
}

// TestStreamGoBackN drives the refusal protocol deterministically: park
// the tenant's worker pool at the control barrier so the queue cannot
// drain, fill the record budget, and verify the exact ack sequence the
// wire contract promises — 202 while the budget holds, 429 for the
// frame that busts it, 425 for anything pipelined behind the refusal,
// then 202s again once the refused frame is retransmitted in order.
func TestStreamGoBackN(t *testing.T) {
	s, addr := bootStreamServer(t, Config{QueueRecords: 100})
	c := &Client{Tenant: "acme"}
	sc, err := c.DialStream(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	tnt, err := s.Tenant("acme")
	if err != nil {
		t.Fatal(err)
	}

	// Park every ingest worker at the barrier; nothing drains until we
	// release them, so admission decisions depend only on what we sent.
	started, release := make(chan struct{}), make(chan struct{})
	go tnt.control(func() {
		close(started)
		<-release
	}, true)
	<-started

	// Seq 1: 60 records fit the 100-record budget.
	resp, err := sc.Send(sparkRecs("sess-a", 60))
	if err != nil {
		t.Fatalf("first batch refused: %v", err)
	}
	if resp.Accepted != 60 {
		t.Fatalf("first batch accepted %d records, want 60", resp.Accepted)
	}

	// Seq 2: 60 more would hold 120 — refused with the backoff hint.
	var qf ErrQueueFull
	if _, err := sc.Send(sparkRecs("sess-b", 60)); !errors.As(err, &qf) {
		t.Fatalf("over-budget batch: err = %v, want ErrQueueFull", err)
	}
	if qf.RetryAfter <= 0 {
		t.Fatalf("queue-full verdict carries no retry hint: %+v", qf)
	}

	// Seq 3 pipelined behind the refusal must bounce with 425 — the
	// server accepts nothing until seq 2 is retransmitted.
	if err := sc.sendBatchFrame(3, sparkRecs("sess-c", 10)); err != nil {
		t.Fatal(err)
	}
	if err := sc.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	ack, err := sc.readAck()
	if err != nil {
		t.Fatal(err)
	}
	if ack.Seq != 3 || ack.Status != ackRetryEarly {
		t.Fatalf("pipelined frame ack = %+v, want seq 3 status %d", ack, ackRetryEarly)
	}

	// Release the workers and wait for the queue to drain.
	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for tnt.pending.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never drained: %d records pending", tnt.pending.Load())
		}
		time.Sleep(time.Millisecond)
	}

	// Retransmit seq 2 (Send reuses the refused seq), then seq 3 — both
	// admitted now, proving the resync window closed in order.
	if resp, err = sc.Send(sparkRecs("sess-b", 60)); err != nil || resp.Accepted != 60 {
		t.Fatalf("retransmitted batch: resp=%+v err=%v", resp, err)
	}
	if resp, err = sc.Send(sparkRecs("sess-c", 10)); err != nil || resp.Accepted != 10 {
		t.Fatalf("post-resync batch: resp=%+v err=%v", resp, err)
	}

	if got := tnt.records.Load(); got != 130 {
		t.Fatalf("tenant accepted %d records, want 130 (no loss, no duplication)", got)
	}
}

// TestSkippedCountedOnceAcrossRetry pins skipped-record accounting to
// admission: on each wire, a batch carrying one session-less record is
// refused with 429 behind parked workers, then accepted on retry, and
// intellogd_ingest_skipped_total reads 1 — the refused attempt must not
// count it.
func TestSkippedCountedOnceAcrossRetry(t *testing.T) {
	for _, wire := range []string{"ndjson", "ils1"} {
		t.Run(wire, func(t *testing.T) {
			s, addr := bootStreamServer(t, Config{QueueRecords: 100})
			hs := httptest.NewServer(s.Handler())
			defer hs.Close()
			c := &Client{Base: hs.URL, Tenant: "acme"}
			tnt, err := s.Tenant("acme")
			if err != nil {
				t.Fatal(err)
			}
			send := c.IngestRecords
			if wire == "ils1" {
				sc, err := c.DialStream(addr, "")
				if err != nil {
					t.Fatal(err)
				}
				defer sc.Close()
				send = sc.Send
			}

			started, release := make(chan struct{}), make(chan struct{})
			go tnt.control(func() {
				close(started)
				<-release
			}, true)
			<-started
			if _, err := send(sparkRecs("sess-a", 60)); err != nil {
				t.Fatalf("first batch refused: %v", err)
			}
			orphan := logging.Record{Message: "a line with no session", Framework: logging.Spark}
			batch := append(sparkRecs("sess-b", 60), orphan)
			var qf ErrQueueFull
			if _, err := send(batch); !errors.As(err, &qf) {
				t.Fatalf("over-budget batch: err = %v, want ErrQueueFull", err)
			}

			close(release)
			if !tnt.control(func() {}, true) {
				t.Fatal("drain barrier refused")
			}
			resp, err := send(batch)
			if err != nil || resp.Accepted != 60 || resp.Skipped != 1 {
				t.Fatalf("retried batch: resp=%+v err=%v, want 60 accepted, 1 skipped", resp, err)
			}
			text, err := c.Metrics()
			if err != nil {
				t.Fatal(err)
			}
			if want := `intellogd_ingest_skipped_total{tenant="acme"} 1`; !strings.Contains(text, want) {
				t.Fatalf("metrics scrape missing %q", want)
			}
		})
	}
}

// TestStreamReplayBackpressureConformance proves detection semantics
// survive real backpressure: a replay into a queue one-third the
// in-flight window must hit 429s, retransmit go-back-N style, and still
// produce a report byte-identical to batch detection, with every record
// accepted exactly once.
func TestStreamReplayBackpressureConformance(t *testing.T) {
	old := retrySleep
	retrySleep = func(time.Duration) { time.Sleep(time.Millisecond) }
	defer func() { retrySleep = old }()

	spec := conformance.DefaultMatrix()[0] // spark-clean
	corpus := spec.Generate()
	m := conformance.ModelFor(spec.Framework)
	want, err := conformance.Canonicalize(conformance.BatchPath(m.Detector(), corpus.Records))
	if err != nil {
		t.Fatal(err)
	}

	s, addr := bootStreamServer(t, Config{QueueRecords: 96})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	tnt, err := s.Tenant("acme")
	if err != nil {
		t.Fatal(err)
	}

	// Park the workers while the first windows land so refusals are
	// guaranteed (48×4 in flight against a 96-record budget), then let
	// the replay grind through under live drain.
	started, release := make(chan struct{}), make(chan struct{})
	go tnt.control(func() {
		close(started)
		<-release
	}, true)
	<-started

	c := &Client{Base: hs.URL, Tenant: "acme"}
	type result struct {
		res ReplayResult
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := c.ReplayStream(addr, corpus.Records, StreamReplayOptions{
			Batch: 48, Concurrency: 1, Window: 4, MaxRetries: 100000,
		})
		done <- result{res, err}
	}()
	time.Sleep(50 * time.Millisecond)
	close(release)
	r := <-done
	if r.err != nil {
		t.Fatalf("replay under backpressure: %v", r.err)
	}
	if r.res.Rejected == 0 {
		t.Fatal("replay saw no 429s; the backpressure path was not exercised")
	}
	if r.res.Records != len(corpus.Records) {
		t.Fatalf("replay accepted %d records, corpus has %d", r.res.Records, len(corpus.Records))
	}

	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Report()
	if err != nil {
		t.Fatal(err)
	}
	got, err := conformance.Canonicalize(&rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("backpressured report diverges from batch detection\nbatch:\n%s\nserved:\n%s", want, got)
	}
}
