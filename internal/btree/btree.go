// Package btree implements an in-memory copy-on-write B+-tree mapping
// column values to posting lists of record identifiers. It is the index
// structure behind both the partial secondary indexes and every Index
// Buffer partition — the paper builds on "a normal B*-Tree" and calls
// the concrete structure not essential (§III).
//
// The tree supports duplicate keys via per-key posting lists kept in RID
// order and ordered iteration. Leaves are not chained, so a change
// copies at most one root-to-leaf path; iteration, Min and range seeks
// descend from the root instead. Delete prunes emptied nodes but never
// borrows or merges: a sparse tree still descends in O(height), and Bulk
// re-packs.
//
// Ownership. The tree and each of its nodes carry an ownership token.
// Insert and Delete change a node the tree owns in place and copy any
// other node on their path first, taking ownership of the copy. Clone is
// O(1): it shares the root and gives both trees fresh tokens, so from
// then on neither changes a shared node and each is an immutable
// snapshot of the other. Two rules keep that true:
//
//   - A leaf copied for ownership caps every posting it inherits at its
//     length (p[:len(p):len(p)]), so growing one reallocates instead of
//     writing into an array a clone still reads; and removing a RID
//     always builds a fresh posting.
//   - Every clone gets a unique token. Tokens come from a process-wide
//     counter; a zero-size allocation such as new(struct{}) would not
//     do, because Go may return the same address for all of them.
package btree

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/storage"
)

// DefaultOrder is the default maximum number of children per inner node
// (and keys per leaf).
const DefaultOrder = 64

// Tree is a B+-tree from storage.Value keys to RID posting lists.
// The zero Tree is not usable; construct with New.
//
// Tree is not safe for concurrent mutation; callers serialize Insert,
// Delete and Clone (the engine holds its own locks). Readers may walk a
// tree concurrently with a mutator as long as nobody mutates that tree
// itself: Clone writes only the receiver's token, which no reader uses.
type Tree struct {
	order    int
	root     *node // nil when empty
	owner    uint64
	distinct int // number of keys with non-empty postings
	entries  int // number of (key, rid) pairs
}

// node is a leaf when children is nil. A leaf's keys[i] maps to
// posts[i], a non-empty posting sorted by RID. An inner node's
// children[i] covers keys < keys[i] and children[len(keys)] the rest;
// every key under children[i+1] is >= keys[i]. A node changes in place
// only under the tree whose token it carries.
type node struct {
	keys     []storage.Value
	children []*node
	posts    [][]storage.RID
	owner    uint64
}

func (n *node) leaf() bool { return n.children == nil }

var lastToken atomic.Uint64

func newToken() uint64 { return lastToken.Add(1) }

// New creates an empty tree. Order must be at least 4 to keep splits
// well-formed; New panics otherwise (a static misconfiguration).
func New(order int) *Tree {
	if order < 4 {
		panic(fmt.Sprintf("btree: order %d, want >= 4", order))
	}
	return &Tree{order: order, owner: newToken()}
}

// NewDefault creates an empty tree with DefaultOrder.
func NewDefault() *Tree { return New(DefaultOrder) }

// Clone returns a tree with the same contents in O(1). The two trees
// share every node until one of them changes it, so a clone taken before
// a batch of mutations is a stable snapshot, and mutating a clone never
// shows through the receiver.
func (t *Tree) Clone() *Tree {
	c := *t
	t.owner, c.owner = newToken(), newToken()
	return &c
}

// Len returns the number of distinct keys.
func (t *Tree) Len() int { return t.distinct }

// EntryCount returns the number of (key, rid) entries — the unit the
// Index Buffer Space budget is expressed in.
func (t *Tree) EntryCount() int { return t.entries }

// searchKeys returns the number of keys in ks less than or equal to k —
// the child index to descend into for inner nodes.
func searchKeys(ks []storage.Value, k storage.Value) int {
	return sort.Search(len(ks), func(i int) bool { return ks[i].Compare(k) > 0 })
}

// leafSlot returns the position of k in the leaf and whether it is
// present.
func leafSlot(ks []storage.Value, k storage.Value) (int, bool) {
	i := sort.Search(len(ks), func(i int) bool { return ks[i].Compare(k) >= 0 })
	return i, i < len(ks) && ks[i].Equal(k)
}

// ridSlot returns the position of rid in post and whether it is present.
func ridSlot(post []storage.RID, rid storage.RID) (int, bool) {
	j := sort.Search(len(post), func(j int) bool { return !post[j].Less(rid) })
	return j, j < len(post) && post[j] == rid
}

// mut returns n when t owns it, otherwise a copy t owns.
func (t *Tree) mut(n *node) *node {
	if n.owner == t.owner {
		return n
	}
	return t.copyOf(n)
}

// copyOf copies n for t. The copy has room for one more key and caps
// every posting it inherits.
func (t *Tree) copyOf(n *node) *node {
	c := &node{owner: t.owner, keys: append(make([]storage.Value, 0, len(n.keys)+1), n.keys...)}
	if n.leaf() {
		c.posts = make([][]storage.RID, len(n.posts), len(n.posts)+1)
		for i, p := range n.posts {
			c.posts[i] = p[:len(p):len(p)]
		}
	} else {
		c.children = append(make([]*node, 0, len(n.children)+1), n.children...)
	}
	return c
}

// Insert adds (key, rid) to the tree. Inserting a duplicate (key, rid)
// pair is a no-op returning false; otherwise it returns true.
func (t *Tree) Insert(key storage.Value, rid storage.RID) bool {
	if !key.IsValid() {
		panic("btree: insert of invalid key")
	}
	if t.root == nil {
		t.root = &node{owner: t.owner, keys: []storage.Value{key}, posts: [][]storage.RID{{rid}}}
		t.distinct, t.entries = 1, 1
		return true
	}
	root, sep, sib := t.insert(t.root, key, rid)
	if root == nil {
		return false
	}
	if sib != nil {
		root = &node{owner: t.owner, keys: []storage.Value{sep}, children: []*node{root, sib}}
	}
	t.root = root
	t.entries++
	return true
}

// insert adds (key, rid) under n. It returns nil when the pair was
// already there; otherwise n or its owned copy and, when that node
// split, the separator and new right sibling for the caller to absorb.
func (t *Tree) insert(n *node, key storage.Value, rid storage.RID) (*node, storage.Value, *node) {
	if n.leaf() {
		i, found := leafSlot(n.keys, key)
		if found {
			j, dup := ridSlot(n.posts[i], rid)
			if dup {
				return nil, storage.Value{}, nil
			}
			n = t.mut(n)
			n.posts[i] = slices.Insert(n.posts[i], j, rid)
			return n, storage.Value{}, nil
		}
		n = t.mut(n)
		n.keys = slices.Insert(n.keys, i, key)
		n.posts = slices.Insert(n.posts, i, []storage.RID{rid})
		t.distinct++
		if len(n.keys) > t.order {
			sep, sib := t.split(n)
			return n, sep, sib
		}
		return n, storage.Value{}, nil
	}
	ci := searchKeys(n.keys, key)
	child, sep, sib := t.insert(n.children[ci], key, rid)
	if child == nil {
		return nil, storage.Value{}, nil
	}
	// A child changed in place is owned, and so then is n.
	if child != n.children[ci] {
		n = t.mut(n)
		n.children[ci] = child
	}
	if sib != nil {
		n.keys = slices.Insert(n.keys, ci, sep)
		n.children = slices.Insert(n.children, ci+1, sib)
		if len(n.children) > t.order {
			sep, sib = t.split(n)
			return n, sep, sib
		}
	}
	return n, storage.Value{}, nil
}

// split halves the owned node n, returning the separator and the new
// right sibling. A leaf's separator is the right half's first key; an
// inner node promotes its middle key.
func (t *Tree) split(n *node) (storage.Value, *node) {
	mid := len(n.keys) / 2
	if n.leaf() {
		r := &node{owner: t.owner, keys: slices.Clone(n.keys[mid:]), posts: slices.Clone(n.posts[mid:])}
		n.keys, n.posts = n.keys[:mid:mid], n.posts[:mid:mid]
		return r.keys[0], r
	}
	sep := n.keys[mid]
	r := &node{owner: t.owner, keys: slices.Clone(n.keys[mid+1:]), children: slices.Clone(n.children[mid+1:])}
	n.keys, n.children = n.keys[:mid:mid], n.children[:mid+1:mid+1]
	return sep, r
}

// Lookup returns the posting list for key, or nil. The returned slice is
// shared with the tree and its clones; callers must not mutate it.
func (t *Tree) Lookup(key storage.Value) []storage.RID {
	n := t.root
	if n == nil {
		return nil
	}
	for !n.leaf() {
		n = n.children[searchKeys(n.keys, key)]
	}
	if i, found := leafSlot(n.keys, key); found {
		return n.posts[i]
	}
	return nil
}

// Contains reports whether (key, rid) is in the tree.
func (t *Tree) Contains(key storage.Value, rid storage.RID) bool {
	_, found := ridSlot(t.Lookup(key), rid)
	return found
}

// Delete removes (key, rid). It returns false when the pair was absent.
func (t *Tree) Delete(key storage.Value, rid storage.RID) bool {
	if t.root == nil {
		return false
	}
	root, removed := t.delete(t.root, key, rid)
	if !removed {
		return false
	}
	// Collapse root inner nodes left with a single child.
	for root != nil && len(root.children) == 1 {
		root = root.children[0]
	}
	t.root = root
	t.entries--
	return true
}

// delete removes (key, rid) under n. On success it returns n or its
// owned copy, or nil when n emptied and its parent must prune it.
func (t *Tree) delete(n *node, key storage.Value, rid storage.RID) (*node, bool) {
	if n.leaf() {
		i, found := leafSlot(n.keys, key)
		if !found {
			return n, false
		}
		post := n.posts[i]
		j, found := ridSlot(post, rid)
		if !found {
			return n, false
		}
		if len(post) > 1 {
			n = t.mut(n)
			n.posts[i] = append(append(make([]storage.RID, 0, len(post)-1), post[:j]...), post[j+1:]...)
			return n, true
		}
		t.distinct--
		if len(n.keys) == 1 {
			return nil, true
		}
		n = t.mut(n)
		n.keys = slices.Delete(n.keys, i, i+1)
		n.posts = slices.Delete(n.posts, i, i+1)
		return n, true
	}
	ci := searchKeys(n.keys, key)
	child, removed := t.delete(n.children[ci], key, rid)
	if !removed {
		return n, false
	}
	if child == nil && len(n.children) == 1 {
		return nil, true
	}
	n = t.mut(n)
	if child != nil {
		n.children[ci] = child
		return n, true
	}
	// Pruning children[ci] drops its separator keys[ci-1], or keys[0]
	// for the first child.
	ki := max(ci-1, 0)
	n.keys = slices.Delete(n.keys, ki, ki+1)
	n.children = slices.Delete(n.children, ci, ci+1)
	return n, true
}

// Ascend calls fn for every (key, posting) in key order until fn returns
// false.
func (t *Tree) Ascend(fn func(key storage.Value, post []storage.RID) bool) {
	t.AscendRange(storage.Value{}, storage.Value{}, fn)
}

// AscendRange calls fn for every key in [lo, hi] in order until fn
// returns false. An invalid lo means "from the minimum"; an invalid hi
// means "to the maximum".
func (t *Tree) AscendRange(lo, hi storage.Value, fn func(key storage.Value, post []storage.RID) bool) {
	if t.root != nil {
		ascendRange(t.root, lo, hi, fn)
	}
}

// ascendRange walks the subtree in order; it returns false once fn
// stopped the iteration or a key passed hi, which unwinds the whole
// walk.
func ascendRange(n *node, lo, hi storage.Value, fn func(key storage.Value, post []storage.RID) bool) bool {
	if n.leaf() {
		start := 0
		if lo.IsValid() {
			start, _ = leafSlot(n.keys, lo)
		}
		for i := start; i < len(n.keys); i++ {
			if hi.IsValid() && n.keys[i].Compare(hi) > 0 {
				return false
			}
			if !fn(n.keys[i], n.posts[i]) {
				return false
			}
		}
		return true
	}
	start := 0
	if lo.IsValid() {
		start = searchKeys(n.keys, lo)
	}
	for _, c := range n.children[start:] {
		if !ascendRange(c, lo, hi, fn) {
			return false
		}
		lo = storage.Value{} // every later child holds only keys > lo
	}
	return true
}

// Min returns the smallest key, or an invalid Value when empty. Leaves
// are never empty, so the leftmost leaf holds it.
func (t *Tree) Min() storage.Value {
	n := t.root
	if n == nil {
		return storage.Value{}
	}
	for !n.leaf() {
		n = n.children[0]
	}
	return n.keys[0]
}

// Max returns the largest key, or an invalid Value when empty.
func (t *Tree) Max() storage.Value {
	n := t.root
	if n == nil {
		return storage.Value{}
	}
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	return n.keys[len(n.keys)-1]
}

// Height returns the number of levels (1 for a lone leaf, 0 when
// empty). Exposed for tests and stats.
func (t *Tree) Height() int {
	if t.root == nil {
		return 0
	}
	h := 1
	for n := t.root; !n.leaf(); n = n.children[0] {
		h++
	}
	return h
}
