package hwgraph

import (
	"sync"

	"intellog/internal/extract"
)

// ValueInterner assigns dense int32 ids to identifier values across a
// model's lifetime. Algorithm 2 compares identifier sets tens of
// thousands of times per corpus; with values interned once per distinct
// rendering (cached on the bound prototype), the per-message work becomes
// pure integer array operations — no string hashing in the hot loop.
//
// The interner is safe for concurrent use; InternMessage results are
// cached on the message, so the lock is only taken once per distinct
// rendering (or per message on the uncached fallback path).
type ValueInterner struct {
	mu  sync.Mutex
	ids map[string]int32
}

// NewValueInterner returns an empty interner.
func NewValueInterner() *ValueInterner {
	return &ValueInterner{ids: map[string]int32{}}
}

// Len returns the number of distinct values interned so far. Ids are
// permanent, so it only grows.
func (vi *ValueInterner) Len() int {
	vi.mu.Lock()
	defer vi.mu.Unlock()
	return len(vi.ids)
}

// InternMessage computes and caches the message's interned identifier
// set. Call at prototype build time, while the message is still private
// to one goroutine. Messages without identifiers are left untouched.
func (vi *ValueInterner) InternMessage(m *extract.Message) {
	set := m.IdentifierSet()
	if len(set) == 0 {
		return
	}
	if ii := m.Interned(); ii != nil && ii.Owner == vi {
		return
	}
	m.SetInterned(vi.internSet(set))
}

// internSet interns a sorted identifier multiset.
func (vi *ValueInterner) internSet(set []string) *extract.InternedIDs {
	ii := &extract.InternedIDs{Owner: vi, Total: len(set)}
	vi.mu.Lock()
	for i, v := range set {
		if i > 0 && v == set[i-1] { // sorted: duplicates are adjacent
			ii.Counts[len(ii.Counts)-1]++
			continue
		}
		id, ok := vi.ids[v]
		if !ok {
			id = int32(len(vi.ids))
			vi.ids[v] = id
		}
		ii.IDs = append(ii.IDs, id)
		ii.Vals = append(ii.Vals, v)
		ii.Counts = append(ii.Counts, 1)
	}
	vi.mu.Unlock()
	return ii
}
