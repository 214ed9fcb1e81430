package btree

import (
	"fmt"
	"sort"

	"repro/internal/storage"
)

// PTree is an immutable (persistent) B+-tree from storage.Value keys to
// RID posting lists — the lock-free-read counterpart of Tree. Mutating
// operations return a new tree sharing all unchanged nodes with the
// receiver (path copying), so a reader holding an old root keeps a
// fully consistent view while a serialized writer publishes new roots
// with one atomic pointer store. The partial secondary index uses it so
// the lock-free read path can probe without locks.
//
// Differences from Tree, both invisible to callers:
//
//   - There is no leaf chain (a chained leaf cannot be path-copied
//     without copying every leaf to its left); iteration descends from
//     the root instead.
//   - Delete prunes emptied leaves but never rebalances. Rebalancing
//     under path copying buys nothing — nodes are not reused in place —
//     and a sparse tree still descends in O(height). The worst case is
//     a tree built tall by inserts and thinned by deletes, which
//     matches the partial index's DML mix fine; Rebuild re-packs.
//
// The zero PTree is an empty tree of DefaultOrder.
type PTree struct {
	order    int
	root     pnode // nil means empty
	distinct int
	entries  int
}

type pnode interface {
	isPNode()
}

// pleaf mirrors leaf without the next pointer. keys[i] corresponds to
// posts[i]; postings are sorted by RID and non-empty. Nodes reachable
// from a published root are immutable.
type pleaf struct {
	keys  []storage.Value
	posts [][]storage.RID
}

// pinner mirrors inner: children[i] covers keys < keys[i], and keys[i]
// equals the smallest key reachable under children[i+1].
type pinner struct {
	keys     []storage.Value
	children []pnode
}

func (*pleaf) isPNode()  {}
func (*pinner) isPNode() {}

// NewPTree creates an empty persistent tree. Order must be at least 4,
// as for New.
func NewPTree(order int) *PTree {
	if order < 4 {
		panic(fmt.Sprintf("btree: order %d, want >= 4", order))
	}
	return &PTree{order: order}
}

// NewPTreeDefault creates an empty persistent tree with DefaultOrder.
func NewPTreeDefault() *PTree { return NewPTree(DefaultOrder) }

func (t *PTree) ord() int {
	if t.order == 0 {
		return DefaultOrder
	}
	return t.order
}

// Len returns the number of distinct keys.
func (t *PTree) Len() int { return t.distinct }

// EntryCount returns the number of (key, rid) entries.
func (t *PTree) EntryCount() int { return t.entries }

// Lookup returns the posting list for key, or nil. The returned slice
// is shared with the tree; callers must not mutate it.
func (t *PTree) Lookup(key storage.Value) []storage.RID {
	n := t.root
	for n != nil {
		switch nd := n.(type) {
		case *pleaf:
			if i, found := leafSlot(nd.keys, key); found {
				return nd.posts[i]
			}
			return nil
		case *pinner:
			n = nd.children[searchKeys(nd.keys, key)]
		}
	}
	return nil
}

// Contains reports whether (key, rid) is in the tree.
func (t *PTree) Contains(key storage.Value, rid storage.RID) bool {
	for _, r := range t.Lookup(key) {
		if r == rid {
			return true
		}
	}
	return false
}

// Insert returns a tree containing (key, rid) plus everything in t.
// Inserting a present pair returns the receiver unchanged with added
// false. The receiver is never modified.
func (t *PTree) Insert(key storage.Value, rid storage.RID) (*PTree, bool) {
	if !key.IsValid() {
		panic("btree: insert of invalid key")
	}
	if t.root == nil {
		nt := &PTree{order: t.ord(), distinct: 1, entries: 1}
		nt.root = &pleaf{keys: []storage.Value{key}, posts: [][]storage.RID{{rid}}}
		return nt, true
	}
	root, sepKey, sibling, added, newKey := t.pinsert(t.root, key, rid)
	if !added {
		return t, false
	}
	if sibling != nil {
		root = &pinner{keys: []storage.Value{sepKey}, children: []pnode{root, sibling}}
	}
	nt := &PTree{order: t.ord(), root: root, distinct: t.distinct, entries: t.entries + 1}
	if newKey {
		nt.distinct++
	}
	return nt, true
}

// pinsert returns a copied path with (key, rid) inserted. When the
// copied node splits, sepKey/sibling carry the new right sibling up.
func (t *PTree) pinsert(n pnode, key storage.Value, rid storage.RID) (repl pnode, sepKey storage.Value, sibling pnode, added, newKey bool) {
	switch nd := n.(type) {
	case *pleaf:
		i, found := leafSlot(nd.keys, key)
		if found {
			post := nd.posts[i]
			j := sort.Search(len(post), func(j int) bool { return !post[j].Less(rid) })
			if j < len(post) && post[j] == rid {
				return n, storage.Value{}, nil, false, false
			}
			np := make([]storage.RID, 0, len(post)+1)
			np = append(np, post[:j]...)
			np = append(np, rid)
			np = append(np, post[j:]...)
			cp := &pleaf{keys: nd.keys, posts: copyPosts(nd.posts)}
			cp.posts[i] = np
			return cp, storage.Value{}, nil, true, false
		}
		cp := &pleaf{
			keys:  insertValue(nd.keys, i, key),
			posts: insertPost(nd.posts, i, []storage.RID{rid}),
		}
		if len(cp.keys) > t.ord() {
			mid := len(cp.keys) / 2
			right := &pleaf{keys: cp.keys[mid:], posts: cp.posts[mid:]}
			left := &pleaf{keys: cp.keys[:mid:mid], posts: cp.posts[:mid:mid]}
			return left, right.keys[0], right, true, true
		}
		return cp, storage.Value{}, nil, true, true

	case *pinner:
		ci := searchKeys(nd.keys, key)
		child, sk, sib, ok, nk := t.pinsert(nd.children[ci], key, rid)
		if !ok {
			return n, storage.Value{}, nil, false, false
		}
		cp := &pinner{
			keys:     append([]storage.Value(nil), nd.keys...),
			children: append([]pnode(nil), nd.children...),
		}
		cp.children[ci] = child
		if sib != nil {
			cp.keys = insertValue(cp.keys, ci, sk)
			cp.children = insertNode(cp.children, ci+1, sib)
			if len(cp.children) > t.ord() {
				mid := len(cp.keys) / 2
				sep := cp.keys[mid]
				right := &pinner{
					keys:     append([]storage.Value(nil), cp.keys[mid+1:]...),
					children: append([]pnode(nil), cp.children[mid+1:]...),
				}
				cp.keys = cp.keys[:mid:mid]
				cp.children = cp.children[: mid+1 : mid+1]
				return cp, sep, right, true, nk
			}
		}
		return cp, storage.Value{}, nil, true, nk
	default:
		panic("btree: unknown node type")
	}
}

// Delete returns a tree without (key, rid). When the pair was absent it
// returns the receiver unchanged with removed false.
func (t *PTree) Delete(key storage.Value, rid storage.RID) (*PTree, bool) {
	if t.root == nil {
		return t, false
	}
	root, removed, emptiedKey := t.pdelete(t.root, key, rid)
	if !removed {
		return t, false
	}
	// Collapse a root inner node with a single child; an emptied root
	// becomes the nil (empty) root.
	for {
		if in, ok := root.(*pinner); ok && len(in.children) == 1 {
			root = in.children[0]
			continue
		}
		break
	}
	if emptyPNode(root) {
		root = nil
	}
	nt := &PTree{order: t.ord(), root: root, distinct: t.distinct, entries: t.entries - 1}
	if emptiedKey {
		nt.distinct--
	}
	return nt, true
}

// pdelete returns a copied path with (key, rid) removed. A leaf that
// empties is pruned by its parent; separator bookkeeping preserves the
// "keys[i] = min under children[i+1]" invariant.
func (t *PTree) pdelete(n pnode, key storage.Value, rid storage.RID) (repl pnode, removed, emptiedKey bool) {
	switch nd := n.(type) {
	case *pleaf:
		i, found := leafSlot(nd.keys, key)
		if !found {
			return n, false, false
		}
		post := nd.posts[i]
		j := sort.Search(len(post), func(j int) bool { return !post[j].Less(rid) })
		if j >= len(post) || post[j] != rid {
			return n, false, false
		}
		if len(post) > 1 {
			np := make([]storage.RID, 0, len(post)-1)
			np = append(np, post[:j]...)
			np = append(np, post[j+1:]...)
			cp := &pleaf{keys: nd.keys, posts: copyPosts(nd.posts)}
			cp.posts[i] = np
			return cp, true, false
		}
		cp := &pleaf{
			keys:  removeValue(nd.keys, i),
			posts: removePost(nd.posts, i),
		}
		return cp, true, true

	case *pinner:
		ci := searchKeys(nd.keys, key)
		child, ok, ek := t.pdelete(nd.children[ci], key, rid)
		if !ok {
			return n, false, false
		}
		if emptyPNode(child) {
			// Prune the emptied child; the prune cascades when this was
			// the last child. Dropping children[ci] drops keys[ci-1]
			// (its separator), or keys[0] for the first child.
			if len(nd.children) == 1 {
				return &pinner{}, true, ek
			}
			cp := &pinner{
				keys:     append([]storage.Value(nil), nd.keys...),
				children: append([]pnode(nil), nd.children...),
			}
			ki := ci - 1
			if ci == 0 {
				ki = 0
			}
			cp.keys = removeValue(cp.keys, ki)
			cp.children = removeNode(cp.children, ci)
			return cp, true, ek
		}
		cp := &pinner{
			keys:     nd.keys,
			children: append([]pnode(nil), nd.children...),
		}
		cp.children[ci] = child
		return cp, true, ek
	default:
		panic("btree: unknown node type")
	}
}

// emptyPNode reports whether n holds nothing: an emptied leaf or an
// inner whose children were all pruned away.
func emptyPNode(n pnode) bool {
	switch nd := n.(type) {
	case *pleaf:
		return len(nd.keys) == 0
	case *pinner:
		return len(nd.children) == 0
	}
	return n == nil
}

// Ascend calls fn for every (key, posting) in key order until fn
// returns false.
func (t *PTree) Ascend(fn func(key storage.Value, post []storage.RID) bool) {
	t.AscendRange(storage.Value{}, storage.Value{}, fn)
}

// AscendRange calls fn for every key in [lo, hi] in order until fn
// returns false. An invalid lo means "from the minimum"; an invalid hi
// means "to the maximum".
func (t *PTree) AscendRange(lo, hi storage.Value, fn func(key storage.Value, post []storage.RID) bool) {
	if t.root != nil {
		ascendRange(t.root, lo, hi, fn)
	}
}

// ascendRange walks the subtree in order; it returns false once fn
// stopped the iteration or a key passed hi, which unwinds the whole
// walk.
func ascendRange(n pnode, lo, hi storage.Value, fn func(key storage.Value, post []storage.RID) bool) bool {
	switch nd := n.(type) {
	case *pleaf:
		start := 0
		if lo.IsValid() {
			start, _ = leafSlot(nd.keys, lo)
		}
		for i := start; i < len(nd.keys); i++ {
			if hi.IsValid() && nd.keys[i].Compare(hi) > 0 {
				return false
			}
			if !fn(nd.keys[i], nd.posts[i]) {
				return false
			}
		}
		return true
	case *pinner:
		start := 0
		if lo.IsValid() {
			start = searchKeys(nd.keys, lo)
		}
		for i := start; i < len(nd.children); i++ {
			if !ascendRange(nd.children[i], lo, hi, fn) {
				return false
			}
		}
		return true
	default:
		panic("btree: unknown node type")
	}
}

// Min returns the smallest key, or an invalid Value when empty.
func (t *PTree) Min() storage.Value {
	n := t.root
	for n != nil {
		switch nd := n.(type) {
		case *pleaf:
			if len(nd.keys) > 0 {
				return nd.keys[0]
			}
			return storage.Value{}
		case *pinner:
			n = nd.children[0]
		}
	}
	return storage.Value{}
}

// Max returns the largest key, or an invalid Value when empty.
func (t *PTree) Max() storage.Value {
	n := t.root
	for n != nil {
		switch nd := n.(type) {
		case *pleaf:
			if len(nd.keys) > 0 {
				return nd.keys[len(nd.keys)-1]
			}
			return storage.Value{}
		case *pinner:
			n = nd.children[len(nd.children)-1]
		}
	}
	return storage.Value{}
}

// Height returns the number of levels (1 for a lone leaf, 0 when
// empty). Exposed for tests.
func (t *PTree) Height() int {
	h := 0
	n := t.root
	for n != nil {
		h++
		in, ok := n.(*pinner)
		if !ok {
			return h
		}
		n = in.children[0]
	}
	return h
}

// PBulk builds a persistent tree from entries bottom-up — the same
// cheap-construction convention as Bulk, used by index creation and
// Rebuild where per-insert path copying would allocate O(n log n)
// nodes.
func PBulk(order int, entries []Entry) *PTree {
	t := NewPTree(order)
	if len(entries) == 0 {
		return t
	}
	sort.Slice(entries, func(i, j int) bool {
		if c := entries[i].Key.Compare(entries[j].Key); c != 0 {
			return c < 0
		}
		return entries[i].RID.Less(entries[j].RID)
	})

	type kp struct {
		key  storage.Value
		post []storage.RID
	}
	var pairs []kp
	for _, e := range entries {
		if n := len(pairs); n > 0 && pairs[n-1].key.Equal(e.Key) {
			post := pairs[n-1].post
			if post[len(post)-1] == e.RID {
				continue // exact duplicate pair
			}
			pairs[n-1].post = append(post, e.RID)
			continue
		}
		pairs = append(pairs, kp{key: e.Key, post: []storage.RID{e.RID}})
	}
	t.distinct = len(pairs)
	for _, p := range pairs {
		t.entries += len(p.post)
	}

	// Leaf level: no chain and no rebalancing invariant to maintain, so
	// simple chunking suffices.
	var level []pnode
	var mins []storage.Value
	for start := 0; start < len(pairs); start += order {
		end := start + order
		if end > len(pairs) {
			end = len(pairs)
		}
		lf := &pleaf{}
		for _, p := range pairs[start:end] {
			lf.keys = append(lf.keys, p.key)
			lf.posts = append(lf.posts, p.post)
		}
		level = append(level, lf)
		mins = append(mins, lf.keys[0])
	}

	// Inner levels bottom-up; separators are the minimum keys of
	// children 1..n-1.
	for len(level) > 1 {
		var nextLevel []pnode
		var nextMins []storage.Value
		for start := 0; start < len(level); start += order {
			end := start + order
			if end > len(level) {
				end = len(level)
			}
			in := &pinner{}
			for i := start; i < end; i++ {
				in.children = append(in.children, level[i])
				if i > start {
					in.keys = append(in.keys, mins[i])
				}
			}
			nextLevel = append(nextLevel, in)
			nextMins = append(nextMins, mins[start])
		}
		level = nextLevel
		mins = nextMins
	}
	t.root = level[0]
	return t
}

// Slice-copy helpers. Inserts and removals always produce fresh backing
// arrays so published nodes stay immutable.

func copyPosts(posts [][]storage.RID) [][]storage.RID {
	return append([][]storage.RID(nil), posts...)
}

func insertValue(s []storage.Value, i int, v storage.Value) []storage.Value {
	out := make([]storage.Value, 0, len(s)+1)
	out = append(out, s[:i]...)
	out = append(out, v)
	out = append(out, s[i:]...)
	return out
}

func insertPost(s [][]storage.RID, i int, p []storage.RID) [][]storage.RID {
	out := make([][]storage.RID, 0, len(s)+1)
	out = append(out, s[:i]...)
	out = append(out, p)
	out = append(out, s[i:]...)
	return out
}

func insertNode(s []pnode, i int, n pnode) []pnode {
	out := make([]pnode, 0, len(s)+1)
	out = append(out, s[:i]...)
	out = append(out, n)
	out = append(out, s[i:]...)
	return out
}

func removeValue(s []storage.Value, i int) []storage.Value {
	out := make([]storage.Value, 0, len(s)-1)
	out = append(out, s[:i]...)
	out = append(out, s[i+1:]...)
	return out
}

func removePost(s [][]storage.RID, i int) [][]storage.RID {
	out := make([][]storage.RID, 0, len(s)-1)
	out = append(out, s[:i]...)
	out = append(out, s[i+1:]...)
	return out
}

func removeNode(s []pnode, i int) []pnode {
	out := make([]pnode, 0, len(s)-1)
	out = append(out, s[:i]...)
	out = append(out, s[i+1:]...)
	return out
}
