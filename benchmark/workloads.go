package main

import (
	"time"

	"intellog/internal/logging"
	"intellog/internal/sim"
)

// workload is one traffic mix against one daemon configuration. The
// rates were sized on a 2-CPU machine at roughly 40-50% of the rate
// where the daemon starts refusing batches; see README.md.
type workload struct {
	name      string
	framework logging.Framework
	// faults is the per-job fault cycle of the ingested corpus.
	faults []sim.FaultKind
	// rate is the open-loop arrival rate in records per second.
	rate float64
	// batch is the records per ingest call.
	batch int
	// conns is the number of load connections, sessions hash-sharded
	// across them.
	conns int
	// wire is "ils1" (binary stream protocol) or "ndjson" (HTTP).
	wire string
	// workers, idle, walSync and ckptEvery are the daemon flags the
	// workload sets; the layer replay of the traced run mirrors them.
	workers   int
	idle      time.Duration
	walSync   string
	ckptEvery time.Duration
}

// The reader's fixed schedule: the anomalies cursor every readEvery, and
// the clusters page plus explain of the newest finding every dashEvery.
const (
	readEvery = 2 * time.Millisecond
	dashEvery = 100 * time.Millisecond
)

// queueRecords is the per-tenant ingest queue budget, about two seconds
// of arrivals at the workloads' rates. The default (8192 records, under
// 300ms at 30k rec/s) is shorter than a checkpoint's fsync stall on a
// shared disk; one refusal then costs the fixed one-second Retry-After,
// the generator falls a second behind, and the burst that follows is
// refused again. Runs would measure that cliff (a known defect, see
// README.md) instead of the daemon.
const queueRecords = 65536

func (w workload) daemonArgs() []string {
	return []string{
		"-queue", itoa(queueRecords),
		"-framework", string(w.framework),
		"-ingest-workers", itoa(w.workers),
		"-idle", w.idle.String(),
		"-wal-sync", w.walSync,
		"-checkpoint-every", w.ckptEvery.String(),
	}
}

var workloads = map[string]workload{
	// The daemon as deployed for online detection: default flags (one
	// ingest worker, 5m idle expiry, WAL fsync on an interval, analytics
	// on) plus a state directory and a checkpoint cadence short enough
	// that several checkpoints land in every run. The kill/network/spill
	// mix yields both immediate (unexpected-message) and idle-expiry
	// verdicts mid-stream. fsync is off the ack path; JSON decode and the
	// multi-worker routing split are bypassed.
	"ils1-online": {
		name:      "ils1-online",
		framework: logging.Spark,
		faults:    []sim.FaultKind{sim.FaultNone, sim.FaultKill, sim.FaultNetwork, sim.FaultSpill},
		rate:      30000,
		batch:     512,
		conns:     1,
		wire:      "ils1",
		workers:   1,
		idle:      5 * time.Minute,
		walSync:   "interval",
		ckptEvery: 2 * time.Second,
	},
	// Strict durability under high session churn: MapReduce opens and
	// finalizes many short sessions, NDJSON is decoded on every batch,
	// two connections feed two ingest workers through the routing split,
	// and every ack waits for fsync under the tenant's route lock. Idle
	// expiry is off because with several workers it splits sessions (a
	// known defect, see README.md), so every structural verdict comes
	// from a wave's flush. The checkpoint cadence is longer than a run,
	// so no checkpoint (which holds every open session here) stalls the
	// measured phase at a point that depends on boot time.
	"ndjson-fsync": {
		name:      "ndjson-fsync",
		framework: logging.MapReduce,
		faults:    []sim.FaultKind{sim.FaultNone, sim.FaultKill, sim.FaultNetwork, sim.FaultNode},
		rate:      20000,
		batch:     256,
		conns:     2,
		wire:      "ndjson",
		workers:   2,
		idle:      0,
		walSync:   "always",
		ckptEvery: time.Minute,
	},
}
