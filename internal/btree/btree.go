// Package btree implements an in-memory B+-tree mapping column values to
// posting lists of record identifiers. It is the index structure behind
// both the partial secondary indexes and every Index Buffer partition —
// the paper builds on "a normal B*-Tree" and calls the concrete
// structure not essential (§III).
//
// The tree supports duplicate keys via per-key posting lists kept in RID
// order, ordered iteration, and full delete rebalancing (borrow/merge).
package btree

import (
	"fmt"
	"sort"

	"repro/internal/storage"
)

// DefaultOrder is the default maximum number of children per inner node
// (and keys per leaf).
const DefaultOrder = 64

// Tree is a B+-tree from storage.Value keys to RID posting lists.
// The zero Tree is not usable; construct with New.
//
// Tree is not safe for concurrent use; callers serialize access (the
// engine holds its own locks).
type Tree struct {
	order    int
	root     node
	first    *leaf // leftmost leaf, head of the leaf chain
	distinct int   // number of keys with non-empty postings
	entries  int   // number of (key, rid) pairs
}

type node interface {
	isNode()
}

// leaf holds keys and their posting lists. keys[i] corresponds to
// posts[i]; postings are sorted by RID and non-empty.
type leaf struct {
	keys  []storage.Value
	posts [][]storage.RID
	next  *leaf
}

// inner holds separator keys and children. children[i] covers keys <
// keys[i]; children[len(keys)] covers the rest. Each keys[i] equals the
// smallest key reachable under children[i+1].
type inner struct {
	keys     []storage.Value
	children []node
}

func (*leaf) isNode()  {}
func (*inner) isNode() {}

// New creates an empty tree. Order must be at least 4 to keep splits and
// merges well-formed; New panics otherwise (a static misconfiguration).
func New(order int) *Tree {
	if order < 4 {
		panic(fmt.Sprintf("btree: order %d, want >= 4", order))
	}
	lf := &leaf{}
	return &Tree{order: order, root: lf, first: lf}
}

// NewDefault creates an empty tree with DefaultOrder.
func NewDefault() *Tree { return New(DefaultOrder) }

// Len returns the number of distinct keys.
func (t *Tree) Len() int { return t.distinct }

// EntryCount returns the number of (key, rid) entries — the unit the
// Index Buffer Space budget is expressed in.
func (t *Tree) EntryCount() int { return t.entries }

// minLeafKeys is the underflow bound for leaves.
func (t *Tree) minLeafKeys() int { return t.order / 2 }

// minInnerChildren is the underflow bound for inner nodes.
func (t *Tree) minInnerChildren() int { return (t.order + 1) / 2 }

// searchKeys returns the number of keys in ks strictly less than k — the
// child index to descend into for inner nodes.
func searchKeys(ks []storage.Value, k storage.Value) int {
	return sort.Search(len(ks), func(i int) bool { return ks[i].Compare(k) > 0 })
}

// leafSlot returns the position of k in the leaf and whether it is
// present.
func leafSlot(ks []storage.Value, k storage.Value) (int, bool) {
	i := sort.Search(len(ks), func(i int) bool { return ks[i].Compare(k) >= 0 })
	return i, i < len(ks) && ks[i].Equal(k)
}

// Insert adds (key, rid) to the tree. Inserting a duplicate (key, rid)
// pair is a no-op returning false; otherwise it returns true.
func (t *Tree) Insert(key storage.Value, rid storage.RID) bool {
	if !key.IsValid() {
		panic("btree: insert of invalid key")
	}
	added, sepKey, sibling := t.insert(t.root, key, rid)
	if sibling != nil {
		t.root = &inner{
			keys:     []storage.Value{sepKey},
			children: []node{t.root, sibling},
		}
	}
	return added
}

// insert descends to the leaf. When a child splits, it returns the
// separator key and new right sibling for the caller to absorb.
func (t *Tree) insert(n node, key storage.Value, rid storage.RID) (added bool, sepKey storage.Value, sibling node) {
	switch nd := n.(type) {
	case *leaf:
		i, found := leafSlot(nd.keys, key)
		if found {
			post := nd.posts[i]
			j := sort.Search(len(post), func(j int) bool { return !post[j].Less(rid) })
			if j < len(post) && post[j] == rid {
				return false, storage.Value{}, nil
			}
			nd.posts[i] = append(post, storage.RID{})
			copy(nd.posts[i][j+1:], nd.posts[i][j:])
			nd.posts[i][j] = rid
			t.entries++
			return true, storage.Value{}, nil
		}
		nd.keys = append(nd.keys, storage.Value{})
		copy(nd.keys[i+1:], nd.keys[i:])
		nd.keys[i] = key
		nd.posts = append(nd.posts, nil)
		copy(nd.posts[i+1:], nd.posts[i:])
		nd.posts[i] = []storage.RID{rid}
		t.distinct++
		t.entries++
		if len(nd.keys) > t.order {
			sk, sib := t.splitLeaf(nd)
			return true, sk, sib
		}
		return true, storage.Value{}, nil

	case *inner:
		ci := searchKeys(nd.keys, key)
		added, sk, sib := t.insert(nd.children[ci], key, rid)
		if sib != nil {
			nd.keys = append(nd.keys, storage.Value{})
			copy(nd.keys[ci+1:], nd.keys[ci:])
			nd.keys[ci] = sk
			nd.children = append(nd.children, nil)
			copy(nd.children[ci+2:], nd.children[ci+1:])
			nd.children[ci+1] = sib
			if len(nd.children) > t.order {
				sk2, sib2 := t.splitInner(nd)
				return added, sk2, sib2
			}
		}
		return added, storage.Value{}, nil
	default:
		panic("btree: unknown node type")
	}
}

// splitLeaf splits nd in half, returning the separator (first key of the
// right half) and the new right leaf.
func (t *Tree) splitLeaf(nd *leaf) (storage.Value, node) {
	mid := len(nd.keys) / 2
	right := &leaf{
		keys:  append([]storage.Value(nil), nd.keys[mid:]...),
		posts: append([][]storage.RID(nil), nd.posts[mid:]...),
		next:  nd.next,
	}
	nd.keys = nd.keys[:mid:mid]
	nd.posts = nd.posts[:mid:mid]
	nd.next = right
	return right.keys[0], right
}

// splitInner splits nd, promoting the middle key.
func (t *Tree) splitInner(nd *inner) (storage.Value, node) {
	mid := len(nd.keys) / 2
	sep := nd.keys[mid]
	right := &inner{
		keys:     append([]storage.Value(nil), nd.keys[mid+1:]...),
		children: append([]node(nil), nd.children[mid+1:]...),
	}
	nd.keys = nd.keys[:mid:mid]
	nd.children = nd.children[: mid+1 : mid+1]
	return sep, right
}

// Lookup returns the posting list for key, or nil. The returned slice is
// owned by the tree; callers must not mutate it.
func (t *Tree) Lookup(key storage.Value) []storage.RID {
	n := t.root
	for {
		switch nd := n.(type) {
		case *leaf:
			if i, found := leafSlot(nd.keys, key); found {
				return nd.posts[i]
			}
			return nil
		case *inner:
			n = nd.children[searchKeys(nd.keys, key)]
		}
	}
}

// Contains reports whether (key, rid) is in the tree.
func (t *Tree) Contains(key storage.Value, rid storage.RID) bool {
	for _, r := range t.Lookup(key) {
		if r == rid {
			return true
		}
	}
	return false
}

// Delete removes (key, rid). It returns false when the pair was absent.
func (t *Tree) Delete(key storage.Value, rid storage.RID) bool {
	removed := t.delete(t.root, key, rid)
	if !removed {
		return false
	}
	// Collapse a root inner node with a single child.
	if in, ok := t.root.(*inner); ok && len(in.children) == 1 {
		t.root = in.children[0]
	}
	return true
}

func (t *Tree) delete(n node, key storage.Value, rid storage.RID) bool {
	switch nd := n.(type) {
	case *leaf:
		i, found := leafSlot(nd.keys, key)
		if !found {
			return false
		}
		post := nd.posts[i]
		j := sort.Search(len(post), func(j int) bool { return !post[j].Less(rid) })
		if j >= len(post) || post[j] != rid {
			return false
		}
		nd.posts[i] = append(post[:j], post[j+1:]...)
		t.entries--
		if len(nd.posts[i]) == 0 {
			nd.keys = append(nd.keys[:i], nd.keys[i+1:]...)
			nd.posts = append(nd.posts[:i], nd.posts[i+1:]...)
			t.distinct--
		}
		return true

	case *inner:
		ci := searchKeys(nd.keys, key)
		if !t.delete(nd.children[ci], key, rid) {
			return false
		}
		t.rebalance(nd, ci)
		return true
	default:
		panic("btree: unknown node type")
	}
}

// rebalance fixes a potential underflow of nd.children[ci] by borrowing
// from or merging with a sibling.
func (t *Tree) rebalance(nd *inner, ci int) {
	switch child := nd.children[ci].(type) {
	case *leaf:
		if len(child.keys) >= t.minLeafKeys() {
			return
		}
		// Borrow from right sibling.
		if ci+1 < len(nd.children) {
			r := nd.children[ci+1].(*leaf)
			if len(r.keys) > t.minLeafKeys() {
				child.keys = append(child.keys, r.keys[0])
				child.posts = append(child.posts, r.posts[0])
				r.keys = r.keys[1:]
				r.posts = r.posts[1:]
				nd.keys[ci] = r.keys[0]
				return
			}
		}
		// Borrow from left sibling.
		if ci > 0 {
			l := nd.children[ci-1].(*leaf)
			if len(l.keys) > t.minLeafKeys() {
				last := len(l.keys) - 1
				child.keys = append([]storage.Value{l.keys[last]}, child.keys...)
				child.posts = append([][]storage.RID{l.posts[last]}, child.posts...)
				l.keys = l.keys[:last]
				l.posts = l.posts[:last]
				nd.keys[ci-1] = child.keys[0]
				return
			}
		}
		// Merge with a sibling.
		if ci+1 < len(nd.children) {
			t.mergeLeaves(nd, ci)
		} else if ci > 0 {
			t.mergeLeaves(nd, ci-1)
		}

	case *inner:
		if len(child.children) >= t.minInnerChildren() {
			return
		}
		if ci+1 < len(nd.children) {
			r := nd.children[ci+1].(*inner)
			if len(r.children) > t.minInnerChildren() {
				// Rotate left through the separator.
				child.keys = append(child.keys, nd.keys[ci])
				child.children = append(child.children, r.children[0])
				nd.keys[ci] = r.keys[0]
				r.keys = r.keys[1:]
				r.children = r.children[1:]
				return
			}
		}
		if ci > 0 {
			l := nd.children[ci-1].(*inner)
			if len(l.children) > t.minInnerChildren() {
				// Rotate right through the separator.
				child.keys = append([]storage.Value{nd.keys[ci-1]}, child.keys...)
				child.children = append([]node{l.children[len(l.children)-1]}, child.children...)
				nd.keys[ci-1] = l.keys[len(l.keys)-1]
				l.keys = l.keys[:len(l.keys)-1]
				l.children = l.children[:len(l.children)-1]
				return
			}
		}
		if ci+1 < len(nd.children) {
			t.mergeInners(nd, ci)
		} else if ci > 0 {
			t.mergeInners(nd, ci-1)
		}
	}
}

// mergeLeaves merges nd.children[i+1] into nd.children[i].
func (t *Tree) mergeLeaves(nd *inner, i int) {
	l := nd.children[i].(*leaf)
	r := nd.children[i+1].(*leaf)
	l.keys = append(l.keys, r.keys...)
	l.posts = append(l.posts, r.posts...)
	l.next = r.next
	nd.keys = append(nd.keys[:i], nd.keys[i+1:]...)
	nd.children = append(nd.children[:i+1], nd.children[i+2:]...)
}

// mergeInners merges nd.children[i+1] into nd.children[i], pulling down
// the separator.
func (t *Tree) mergeInners(nd *inner, i int) {
	l := nd.children[i].(*inner)
	r := nd.children[i+1].(*inner)
	l.keys = append(append(l.keys, nd.keys[i]), r.keys...)
	l.children = append(l.children, r.children...)
	nd.keys = append(nd.keys[:i], nd.keys[i+1:]...)
	nd.children = append(nd.children[:i+1], nd.children[i+2:]...)
}

// Ascend calls fn for every (key, posting) in key order until fn returns
// false.
func (t *Tree) Ascend(fn func(key storage.Value, post []storage.RID) bool) {
	for lf := t.first; lf != nil; lf = lf.next {
		for i, k := range lf.keys {
			if !fn(k, lf.posts[i]) {
				return
			}
		}
	}
}

// AscendRange calls fn for every key in [lo, hi] in order until fn
// returns false. An invalid lo means "from the minimum"; an invalid hi
// means "to the maximum".
func (t *Tree) AscendRange(lo, hi storage.Value, fn func(key storage.Value, post []storage.RID) bool) {
	lf, start := t.seek(lo)
	for ; lf != nil; lf = lf.next {
		for i := start; i < len(lf.keys); i++ {
			if hi.IsValid() && lf.keys[i].Compare(hi) > 0 {
				return
			}
			if !fn(lf.keys[i], lf.posts[i]) {
				return
			}
		}
		start = 0
	}
}

// seek positions at the first key >= lo (or the first key overall when lo
// is invalid).
func (t *Tree) seek(lo storage.Value) (*leaf, int) {
	if !lo.IsValid() {
		return t.first, 0
	}
	n := t.root
	for {
		switch nd := n.(type) {
		case *leaf:
			i, _ := leafSlot(nd.keys, lo)
			if i == len(nd.keys) {
				return nd.next, 0
			}
			return nd, i
		case *inner:
			n = nd.children[searchKeys(nd.keys, lo)]
		}
	}
}

// Min returns the smallest key, or an invalid Value when empty.
func (t *Tree) Min() storage.Value {
	for lf := t.first; lf != nil; lf = lf.next {
		if len(lf.keys) > 0 {
			return lf.keys[0]
		}
	}
	return storage.Value{}
}

// Max returns the largest key, or an invalid Value when empty.
func (t *Tree) Max() storage.Value {
	var out storage.Value
	n := t.root
	for {
		switch nd := n.(type) {
		case *leaf:
			if len(nd.keys) > 0 {
				out = nd.keys[len(nd.keys)-1]
			}
			return out
		case *inner:
			n = nd.children[len(nd.children)-1]
		}
	}
}

// Height returns the number of levels (1 for a lone leaf). Exposed for
// tests and stats.
func (t *Tree) Height() int {
	h := 1
	n := t.root
	for {
		in, ok := n.(*inner)
		if !ok {
			return h
		}
		h++
		n = in.children[0]
	}
}
