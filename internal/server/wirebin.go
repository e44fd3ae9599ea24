package server

import (
	"encoding/binary"
	"time"

	"intellog/internal/logging"
	"intellog/internal/wal"
)

// This file is the length-prefixed binary ingest protocol ("ILS1") that
// intellogd serves beside NDJSON HTTP. A client opens a persistent TCP
// connection, writes the 4-byte magic and a Hello frame naming the
// tenant, and then streams Batch frames of structured records; the
// server answers every frame with an Ack carrying the same admission
// semantics as /v1/ingest (202 accepted, 429 queue-full + retry hint,
// 413 over-budget, 400 malformed) plus 425 for frames refused only
// because an earlier frame must be retransmitted first (go-back-N, so
// per-session record order survives pipelining).
//
// Every frame is
//
//	u32  LE payload length n (= 1 type byte + body + 4 CRC bytes)
//	u8   frame type
//	...  body (n-5 bytes)
//	u32  LE CRC-32 (IEEE) over type byte + body
//
// Bodies use fixed-width little-endian integers for timestamps, varints
// for small counts, and uvarint-length-prefixed raw bytes for strings.
// Record timestamps travel as UnixNano plus the zone offset in seconds,
// which round-trips everything RFC3339 can express (the JSON wire
// form's fidelity); the zero time.Time is a sentinel since its UnixNano
// is out of range. The decode side never trusts a length without
// bounds-checking it first — a truncated, oversized or corrupt frame is
// an error, never a panic or over-read (FuzzWireFrame pins this).

// streamMagic opens every binary ingest connection.
const streamMagic = "ILS1"

// streamVersion is the protocol revision carried in Hello.
const streamVersion = 1

// Frame types.
const (
	frameHello byte = 1 // client → server: version, tenant, framework
	frameBatch byte = 2 // client → server: seq + records
	frameAck   byte = 3 // server → client: per-frame admission verdict
)

// Ack statuses (HTTP codes where one exists, so the two wire forms stay
// one vocabulary). A batch ack carries the tenant's admission verdict
// as is: 202, 413 (over the whole queue budget), 429, or 500 (the
// write-ahead log failed).
const (
	ackAccepted   = 202 // batch queued
	ackBadRecord  = 400 // malformed record (empty message)
	ackRetryEarly = 425 // refused: an earlier refused frame must be resent first
	ackQueueFull  = 429 // admission refused, retry after retryMs
	ackShutdown   = 503 // server draining; the connection is closing
)

// maxWireFrame bounds a frame a peer will accept regardless of
// configuration — the decode-side allocation cap.
const maxWireFrame = wal.MaxFrame

// zeroTimeNano is the on-wire sentinel for the zero time.Time, whose
// UnixNano is undefined (year 1 is outside the int64-nanosecond range).
const zeroTimeNano = wal.ZeroTimeNano

// errWire marks protocol-level decode failures (distinct from I/O
// errors, which pass through unwrapped). The frame envelope and body
// primitives now live in internal/wal — the write-ahead log persists
// entries in the same CRC-framed vocabulary, so one implementation
// covers the wire and the disk; these bindings keep the server-side
// vocabulary in place.
var errWire = wal.ErrWire

func wireErrf(format string, args ...any) error {
	return wal.Errf(format, args...)
}

var (
	appendFrame = wal.AppendFrame
	readFrame   = wal.ReadFrame

	wireUvarint     = wal.Uvarint
	wireVarint      = wal.Varint
	wireBytes       = wal.Bytes
	appendWireBytes = wal.AppendString
)

// --- Hello -------------------------------------------------------------

// appendHello builds a Hello frame body.
func appendHello(dst []byte, tenant string, fw logging.Framework) []byte {
	dst = append(dst, streamVersion)
	dst = appendWireBytes(dst, tenant)
	return appendWireBytes(dst, string(fw))
}

// parseHello decodes a Hello body.
func parseHello(p []byte) (tenant string, fw logging.Framework, err error) {
	if len(p) < 1 {
		return "", "", wireErrf("hello: empty body")
	}
	if v := p[0]; v != streamVersion {
		return "", "", wireErrf("hello: unsupported version %d", v)
	}
	p = p[1:]
	tb, p, ok := wireBytes(p)
	if !ok {
		return "", "", wireErrf("hello: bad tenant")
	}
	fb, p, ok := wireBytes(p)
	if !ok {
		return "", "", wireErrf("hello: bad framework")
	}
	if len(p) != 0 {
		return "", "", wireErrf("hello: %d trailing bytes", len(p))
	}
	return string(tb), logging.Framework(fb), nil
}

// --- Batch -------------------------------------------------------------

// appendBatch builds a Batch frame body from structured records.
func appendBatch(dst []byte, seq uint64, recs []logging.Record) []byte {
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.AppendUvarint(dst, uint64(len(recs)))
	for i := range recs {
		dst = wal.AppendRecord(dst, &recs[i])
	}
	return dst
}

// batchResolver materializes a decoded record's strings. intern dedups
// the small repeating fields (session IDs, sources); msg, when set,
// resolves message bytes against an interned rendering the model
// already owns (the lookup cache), so repeats cost no allocation at
// all. A nil resolver plain-copies everything.
type batchResolver struct {
	intern *wireIntern
	msg    func([]byte) string
}

func (br *batchResolver) message(b []byte) string {
	if br != nil && br.msg != nil {
		return br.msg(b)
	}
	return string(b)
}

func (br *batchResolver) small(b []byte) string {
	if br == nil {
		return string(b)
	}
	return br.intern.get(b)
}

// decodeBatch decodes a Batch body, appending the records to recs. The
// record strings are materialized through br (the payload buffer is
// reused by the next frame, so views cannot escape).
func decodeBatch(p []byte, br *batchResolver, recs []logging.Record) (seq uint64, out []logging.Record, err error) {
	seq, p, ok := wireUvarint(p)
	if !ok {
		return 0, recs, wireErrf("batch: bad seq")
	}
	count, p, ok := wireUvarint(p)
	if !ok {
		return 0, recs, wireErrf("batch: bad record count")
	}
	// Each record costs ≥ 17 bytes on the wire; a count the remaining
	// body cannot possibly hold is malformed, not an allocation order.
	if count > uint64(len(p)/17)+1 {
		return 0, recs, wireErrf("batch: record count %d exceeds body", count)
	}
	if need := len(recs) + int(count); cap(recs) < need {
		grown := make([]logging.Record, len(recs), need)
		copy(grown, recs)
		recs = grown
	}
	for i := uint64(0); i < count; i++ {
		if len(p) < 12 {
			return 0, recs, wireErrf("batch: record %d truncated", i)
		}
		nano := int64(binary.LittleEndian.Uint64(p))
		off := int32(binary.LittleEndian.Uint32(p[8:]))
		p = p[12:]
		lvl, rest, ok := wireVarint(p)
		if !ok {
			return 0, recs, wireErrf("batch: record %d: bad level", i)
		}
		p = rest
		var rec logging.Record
		rec.Level = logging.Level(lvl)
		if nano != zeroTimeNano {
			t := time.Unix(0, nano)
			if off == 0 {
				rec.Time = t.UTC()
			} else {
				rec.Time = t.In(time.FixedZone("", int(off)))
			}
		}
		var b []byte
		if b, p, ok = wireBytes(p); !ok {
			return 0, recs, wireErrf("batch: record %d: bad source", i)
		}
		rec.Source = br.small(b)
		if b, p, ok = wireBytes(p); !ok {
			return 0, recs, wireErrf("batch: record %d: bad message", i)
		}
		rec.Message = br.message(b)
		if b, p, ok = wireBytes(p); !ok {
			return 0, recs, wireErrf("batch: record %d: bad framework", i)
		}
		rec.Framework = logging.Framework(br.small(b))
		if b, p, ok = wireBytes(p); !ok {
			return 0, recs, wireErrf("batch: record %d: bad session", i)
		}
		rec.SessionID = br.small(b)
		if b, p, ok = wireBytes(p); !ok {
			return 0, recs, wireErrf("batch: record %d: bad template", i)
		}
		rec.TemplateID = br.small(b)
		recs = append(recs, rec)
	}
	if len(p) != 0 {
		return 0, recs, wireErrf("batch: %d trailing bytes", len(p))
	}
	return seq, recs, nil
}

// --- Ack ---------------------------------------------------------------

// streamAck is one server verdict for one client frame.
type streamAck struct {
	Seq      uint64 // echoes the batch seq (0 for the hello ack)
	Status   int    // ackAccepted, ackQueueFull, ...
	Accepted int
	Skipped  int
	Dead     int    // records dead-lettered out of an accepted batch
	RetryMs  int    // backoff hint, set with ackQueueFull
	Msg      string // human-readable detail on errors
}

// appendAck builds an Ack frame body.
func appendAck(dst []byte, a streamAck) []byte {
	dst = binary.AppendUvarint(dst, a.Seq)
	dst = binary.AppendUvarint(dst, uint64(a.Status))
	dst = binary.AppendUvarint(dst, uint64(a.Accepted))
	dst = binary.AppendUvarint(dst, uint64(a.Skipped))
	dst = binary.AppendUvarint(dst, uint64(a.Dead))
	dst = binary.AppendUvarint(dst, uint64(a.RetryMs))
	return appendWireBytes(dst, a.Msg)
}

// parseAck decodes an Ack body.
func parseAck(p []byte) (streamAck, error) {
	var a streamAck
	var ok bool
	if a.Seq, p, ok = wireUvarint(p); !ok {
		return a, wireErrf("ack: bad seq")
	}
	var v uint64
	if v, p, ok = wireUvarint(p); !ok || v > 999 {
		return a, wireErrf("ack: bad status")
	}
	a.Status = int(v)
	if v, p, ok = wireUvarint(p); !ok || v > uint64(maxWireFrame) {
		return a, wireErrf("ack: bad accepted count")
	}
	a.Accepted = int(v)
	if v, p, ok = wireUvarint(p); !ok || v > uint64(maxWireFrame) {
		return a, wireErrf("ack: bad skipped count")
	}
	a.Skipped = int(v)
	if v, p, ok = wireUvarint(p); !ok || v > uint64(maxWireFrame) {
		return a, wireErrf("ack: bad dead count")
	}
	a.Dead = int(v)
	if v, p, ok = wireUvarint(p); !ok || v > 1<<30 {
		return a, wireErrf("ack: bad retry hint")
	}
	a.RetryMs = int(v)
	var b []byte
	if b, p, ok = wireBytes(p); !ok {
		return a, wireErrf("ack: bad message")
	}
	a.Msg = string(b)
	if len(p) != 0 {
		return a, wireErrf("ack: %d trailing bytes", len(p))
	}
	return a, nil
}
