package btree

import (
	"sort"

	"repro/internal/storage"
)

// Entry is one (key, rid) pair for bulk loading.
type Entry struct {
	Key storage.Value
	RID storage.RID
}

// Bulk builds a tree from entries in O(n log n) for the sort plus O(n)
// construction — far cheaper than n individual inserts with their splits.
// Duplicate keys merge into posting lists; exact duplicate pairs
// collapse. Bulk sorts entries in place. Index creation and rebuild use
// it (the paper charges these as the expensive disk-side adaptation;
// cheap construction keeps the reproduction's emphasis on the scan
// costs).
func Bulk(order int, entries []Entry) *Tree {
	t := New(order)
	if len(entries) == 0 {
		return t
	}
	sort.Slice(entries, func(i, j int) bool {
		if c := entries[i].Key.Compare(entries[j].Key); c != 0 {
			return c < 0
		}
		return entries[i].RID.Less(entries[j].RID)
	})

	// Leaf level: fill each leaf to `order` keys. Delete never rebalances,
	// so a short last leaf needs no fixing up.
	var level []*node
	var mins []storage.Value
	var lf *node
	for _, e := range entries {
		if lf != nil && lf.keys[len(lf.keys)-1].Equal(e.Key) {
			i := len(lf.posts) - 1
			if lf.posts[i][len(lf.posts[i])-1] != e.RID { // else an exact duplicate pair
				lf.posts[i] = append(lf.posts[i], e.RID)
				t.entries++
			}
			continue
		}
		if lf == nil || len(lf.keys) == order {
			lf = &node{owner: t.owner}
			level = append(level, lf)
			mins = append(mins, e.Key)
		}
		lf.keys = append(lf.keys, e.Key)
		lf.posts = append(lf.posts, []storage.RID{e.RID})
		t.distinct++
		t.entries++
	}

	// Inner levels bottom-up; separators are the minimum keys of
	// children 1..n-1.
	for len(level) > 1 {
		var nextLevel []*node
		var nextMins []storage.Value
		for start := 0; start < len(level); start += order {
			end := min(start+order, len(level))
			nextLevel = append(nextLevel, &node{
				owner:    t.owner,
				keys:     append([]storage.Value(nil), mins[start+1:end]...),
				children: append([]*node(nil), level[start:end]...),
			})
			nextMins = append(nextMins, mins[start])
		}
		level, mins = nextLevel, nextMins
	}
	t.root = level[0]
	return t
}
