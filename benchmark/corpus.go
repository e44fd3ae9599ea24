package main

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"intellog/internal/logging"
	"intellog/internal/sim"
	simwork "intellog/internal/workload"
)

// corpus is the ingested stream: whole simulated jobs, interleaved in
// timestamp order the way an aggregated log stream arrives, plus the
// simulator's ground truth.
type corpus struct {
	recs  []logging.Record
	truth map[string]bool
	// bySess lists each session's record indexes in stream order.
	bySess map[string][]int32
	// segEnd is the exclusive end index of each segment. A segment is a
	// wave of whole jobs; the next wave starts after a quiet gap in log
	// time, so no session spans two segments.
	segEnd []int
}

// Seeds: the training cluster and the ingested-stream cluster are
// distinct simulations of the same seed, so detection always runs on
// jobs the model never saw.
func trainSeed(seed int64) int64  { return seed*1000 + 1 }
func streamSeed(seed int64) int64 { return seed*1000 + 501 }

// trainRecords is the training corpus size. Drawing whole jobs up to a
// fixed size, rather than a fixed job count, keeps training time (part
// of setup_s) from swinging with the seed's job sizes.
const trainRecords = 25000

// trainingSessions draws the fault-free training corpus.
func trainingSessions(fw logging.Framework, seed int64) []*logging.Session {
	gen := simwork.NewGenerator(sim.NewCluster(26, trainSeed(seed)), trainSeed(seed)+1)
	var out []*logging.Session
	for n := 0; n < trainRecords; {
		for _, s := range gen.TrainingCorpus(fw, 1) {
			out = append(out, s)
			n += s.Len()
		}
	}
	return out
}

// streamCorpus draws segments waves of whole jobs, at least target
// records in all. Job i runs fault faults[i mod F] under resource
// configuration (i div F) mod C of the paper's five, so every seed has
// the same mix of job sizes and faults and only the draws inside the
// simulation change: a random configuration per job lets one seed land
// several large faulted jobs and another none, which moves every
// per-record figure. Each wave is interleaved in timestamp order and
// shifted in log time to start gap after the previous one ends.
func streamCorpus(fw logging.Framework, faults []sim.FaultKind, seed int64, target, segments int, gap time.Duration) *corpus {
	gen := simwork.NewGenerator(sim.NewCluster(26, streamSeed(seed)), streamSeed(seed)+1)
	c := &corpus{truth: map[string]bool{}, bySess: map[string][]int32{}}
	job := 0
	var prevEnd time.Time
	for k := 0; k < segments; k++ {
		var seg []logging.Record
		for len(seg) < target/segments {
			cfg := simwork.DefaultConfigSets[(job/len(faults))%len(simwork.DefaultConfigSets)]
			j := gen.Cluster.RunJob(gen.SpecWithConfig(fw, cfg), faults[job%len(faults)])
			job++
			for id := range j.Affected {
				c.truth[id] = true
			}
			for _, s := range j.Sessions {
				for _, r := range s.Records {
					r.SessionID = s.ID
					r.Framework = s.Framework
					seg = append(seg, r)
				}
			}
		}
		sort.SliceStable(seg, func(i, j int) bool { return seg[i].Time.Before(seg[j].Time) })
		if k > 0 {
			if shift := prevEnd.Add(gap).Sub(seg[0].Time); shift > 0 {
				for i := range seg {
					seg[i].Time = seg[i].Time.Add(shift)
				}
			}
		}
		prevEnd = seg[len(seg)-1].Time
		c.recs = append(c.recs, seg...)
		c.segEnd = append(c.segEnd, len(c.recs))
	}
	for i := range c.recs {
		c.bySess[c.recs[i].SessionID] = append(c.bySess[c.recs[i].SessionID], int32(i))
	}
	return c
}

// segmentOf returns the segment holding record i.
func (c *corpus) segmentOf(i int) int {
	return sort.SearchInts(c.segEnd, i+1)
}

// writeSessions renders sessions to dir as one <session>.log file each,
// the on-disk layout `intellog train` and `intellog detect` read.
func writeSessions(dir string, sessions []*logging.Session) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var b strings.Builder
	for _, s := range sessions {
		f := logging.FormatterFor(s.Framework)
		b.Reset()
		for _, r := range s.Records {
			b.WriteString(f.Render(r))
			b.WriteByte('\n')
		}
		if err := os.WriteFile(filepath.Join(dir, s.ID+".log"), []byte(b.String()), 0o644); err != nil {
			return err
		}
	}
	return nil
}
