package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// recorder keeps spans in memory for the traced run and writes them out
// at the end. A nil recorder records nothing, so the untraced run calls
// the same code at the cost of a nil check.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

// span is one timed call: its name, start and end relative to the
// recorder's origin, the index of the span that caused it (-1 for a
// root), and the batch it belongs to (-1 for none).
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Batch  int           `json:"batch"`
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span and returns its handle.
func (r *recorder) begin(name string, parent, batch int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: -1, Parent: parent, Batch: batch})
	i := len(r.spans) - 1
	r.mu.Unlock()
	return i
}

// end closes the span begin returned.
func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	r.spans[i].End = now
	r.mu.Unlock()
}

// count returns the number of spans recorded so far.
func (r *recorder) count() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// spanCost measures what recording one span costs, on a scratch
// recorder: the tracing overhead of a traced call is this much on top of
// the call itself.
func spanCost() time.Duration {
	const n = 100000
	r := newRecorder()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		r.end(r.begin("cost", -1, i))
	}
	return time.Since(t0) / n
}

// layerTime is one span name's totals.
type layerTime struct {
	calls int
	total time.Duration // summed span durations
	self  time.Duration // summed self times
}

// selfTimes sums, per span name, the span durations and self times: a
// span's duration minus the part of it its children cover (children's
// intervals are merged first, so overlapping children count once).
func (r *recorder) selfTimes() map[string]*layerTime {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int][][2]time.Duration{}
	for _, s := range r.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	out := map[string]*layerTime{}
	for i, s := range r.spans {
		if s.End < 0 {
			continue
		}
		d := s.End - s.Start
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.calls++
		lt.total += d
		lt.self += d - covered(children[i], s.Start, s.End)
	}
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(ivs [][2]time.Duration, lo, hi time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum time.Duration
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// dump writes the spans as JSON lines.
func (r *recorder) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(&s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// per returns total/n in the given unit, 0 when n is 0.
func per(total time.Duration, n int, unit time.Duration) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(unit) / float64(n)
}

func fmtDur(d time.Duration) string { return fmt.Sprintf("%.3fms", float64(d)/1e6) }
