package hwgraph

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"intellog/internal/extract"
)

// valueTableLen is the number of identifier values an Assigner retains
// between runs.
func valueTableLen(a *Assigner) int { return len(a.ids) }

// partition renders instances as message indices plus signature, so two
// Assign results compare by value after the reused one's instances die.
func partition(instances []*Instance, msgs []*extract.Message) []string {
	idx := make(map[*extract.Message][]int, len(msgs))
	for i, m := range msgs {
		idx[m] = append(idx[m], i)
	}
	var out []string
	for _, in := range instances {
		seen := map[*extract.Message]int{}
		var pos []int
		for _, m := range in.Msgs {
			// A repeated prototype pointer appears once per occurrence;
			// take its occurrences in order.
			pos = append(pos, idx[m][seen[m]])
			seen[m]++
		}
		out = append(out, fmt.Sprintf("%s %v %d", in.Signature(), pos, in.nIDs))
	}
	return out
}

// randomRun builds one (session, group) run: messages drawing identifier
// values from a pool shared by every run (overlap) and from values private
// to this run (disjoint), with repeated values inside a message and
// back-to-back repeats of one prototype pointer. Every tenth run is wider
// than the table an Assigner keeps between runs.
func randomRun(rng *rand.Rand, run int) []*extract.Message {
	n := 1 + rng.Intn(40)
	private := 1 + rng.Intn(12)
	if run%10 == 9 {
		n, private = 1200, 1500
	}
	types := []string{"TASK", "STAGE", "FETCHER"}
	msgs := make([]*extract.Message, 0, n)
	for len(msgs) < n {
		if len(msgs) > 0 && rng.Intn(5) == 0 {
			msgs = append(msgs, msgs[len(msgs)-1])
			continue
		}
		ids := map[string][]string{}
		for _, typ := range types {
			if rng.Intn(3) != 0 {
				continue
			}
			for k := 1 + rng.Intn(2); k > 0; k-- {
				var v string
				if rng.Intn(2) == 0 {
					v = fmt.Sprintf("shared-%d", rng.Intn(8))
				} else {
					v = fmt.Sprintf("run%d-%d", run, rng.Intn(private))
				}
				ids[typ] = append(ids[typ], v)
			}
		}
		msgs = append(msgs, &extract.Message{KeyID: rng.Intn(5), Identifiers: ids})
	}
	return msgs
}

// TestAssignerReuseMatchesFresh: one Assigner reused across many runs
// returns the same partition as a fresh AssignInstances on every run, and
// keeps no identifier value beyond the run that saw it.
func TestAssignerReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var a Assigner
	for run := 0; run < 300; run++ {
		msgs := randomRun(rng, run)
		want := partition(AssignInstances(msgs), msgs)
		got := partition(a.Assign(msgs), msgs)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: reused Assigner partition\n%v\nfresh\n%v", run, got, want)
		}
		distinct := map[string]bool{}
		for _, m := range msgs {
			for _, v := range m.IdentifierSet() {
				distinct[v] = true
			}
		}
		if n := valueTableLen(&a); n > len(distinct) {
			t.Fatalf("run %d: value table holds %d entries, run has %d distinct values", run, n, len(distinct))
		}
	}
}
