package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"intellog/internal/logging"
	"intellog/internal/wal"
)

// TestWALFailureRefusesOnEveryWire kills the tenant's write-ahead log —
// once closed, every later Append fails, and the failure sticks — and
// drives each admission transport at it: NDJSON ingest answers 500, the
// ILS1 ack is 500 (503 means draining, not a dying disk), and requeue
// answers 500. In every case nothing is buffered, counted, dead-lettered
// or removed from the DLQ, and the failed append is counted once.
func TestWALFailureRefusesOnEveryWire(t *testing.T) {
	noMessage := logging.Record{SessionID: "sess-a", Framework: logging.Spark}
	recs := append(sparkRecs("sess-a", 3), noMessage)
	for _, wire := range []string{"ndjson", "ils1", "requeue"} {
		t.Run(wire, func(t *testing.T) {
			s, addr := bootStreamServer(t, Config{StateDir: t.TempDir()})
			hs := httptest.NewServer(s.Handler())
			defer hs.Close()
			c := &Client{Base: hs.URL, Tenant: "acme"}
			tn, err := s.Tenant("acme")
			if err != nil {
				t.Fatal(err)
			}
			if wire == "requeue" {
				// A requeueable entry, quarantined before the disk died.
				line := deadLetterLine(&sparkRecs("sess-r", 1)[0])
				if err := tn.dlq.Add([]wal.DeadLetter{{Reason: "test", Line: line}}); err != nil {
					t.Fatal(err)
				}
			}
			depth := tn.dlq.Depth()
			tn.wal.Close()

			var status int
			switch wire {
			case "ndjson":
				var body bytes.Buffer
				enc := json.NewEncoder(&body)
				for i := range recs {
					if err := enc.Encode(&recs[i]); err != nil {
						t.Fatal(err)
					}
				}
				status = postStatus(t, hs.URL+"/v1/ingest?tenant=acme", &body)
			case "ils1":
				sc, err := c.DialStream(addr, "")
				if err != nil {
					t.Fatal(err)
				}
				defer sc.Close()
				if err := sc.sendBatchFrame(1, recs); err != nil {
					t.Fatal(err)
				}
				if err := sc.bw.Flush(); err != nil {
					t.Fatal(err)
				}
				ack, err := sc.readAck()
				if err != nil {
					t.Fatal(err)
				}
				status = ack.Status
			case "requeue":
				status = postStatus(t, hs.URL+"/v1/dlq/requeue?tenant=acme", nil)
			}

			if status != http.StatusInternalServerError {
				t.Fatalf("status under WAL failure = %d, want 500", status)
			}
			if got := tn.pending.Load(); got != 0 {
				t.Fatalf("pending records = %d after the refusal, want 0", got)
			}
			if got := tn.records.Load(); got != 0 {
				t.Fatalf("accepted records = %d after the refusal, want 0", got)
			}
			if got := tn.dlq.Depth(); got != depth {
				t.Fatalf("DLQ depth = %d after the refusal, want %d", got, depth)
			}
			text, err := c.Metrics()
			if err != nil {
				t.Fatal(err)
			}
			if want := `intellogd_wal_append_errors_total{tenant="acme"} 1`; !strings.Contains(text, want) {
				t.Fatalf("metrics scrape missing %q", want)
			}
		})
	}
}

// postStatus POSTs body (nil for none) and returns the response status.
func postStatus(t *testing.T, url string, body io.Reader) int {
	t.Helper()
	resp, err := http.Post(url, "application/x-ndjson", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestStreamDeadLetterAck drives the binary wire with a batch holding an
// invalid record: the frame must be accepted (not 400'd whole, the old
// behavior), the bad record counted in the ack's Dead field, and the
// entry listed on the tenant's DLQ.
func TestStreamDeadLetterAck(t *testing.T) {
	s, addr := bootStreamServer(t, Config{})
	c := &Client{Tenant: "acme"}
	sc, err := c.DialStream(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	recs := sparkRecs("sess-a", 3)
	recs = append(recs, logging.Record{SessionID: "sess-a", Framework: logging.Spark}) // no message
	resp, err := sc.Send(recs)
	if err != nil {
		t.Fatalf("batch with one invalid record refused: %v", err)
	}
	if resp.Accepted != 3 || resp.DeadLettered != 1 {
		t.Fatalf("ack = %+v, want 3 accepted, 1 dead-lettered", resp)
	}
	tn, err := s.Tenant("acme")
	if err != nil {
		t.Fatal(err)
	}
	entries, _, depth := tn.dlq.List(0, 0)
	if depth != 1 || len(entries) != 1 {
		t.Fatalf("DLQ depth = %d, want the 1 invalid record", depth)
	}
	if entries[0].Reason != "record has no message" {
		t.Fatalf("DLQ reason = %q", entries[0].Reason)
	}
}
