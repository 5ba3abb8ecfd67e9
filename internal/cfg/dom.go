// Package cfg provides control-flow-graph analyses over IR functions:
// reverse postorder, dominator trees (Cooper–Harvey–Kennedy), dominance
// frontiers and natural-loop detection. These underpin SSA construction
// (package ssa), memory SSA (package memssa) and the dominance conditions
// of the paper's semi-strong updates and Opt II.
package cfg

import "github.com/valueflow/usher/internal/ir"

// DomTree is the dominator tree of a function.
type DomTree struct {
	fn *ir.Function
	// rpo[i] is the i-th block in reverse postorder; rpoNum is its index.
	rpo    []*ir.Block
	rpoNum map[*ir.Block]int
	idom   map[*ir.Block]*ir.Block
	// children of each block in the dominator tree.
	kids map[*ir.Block][]*ir.Block
	// dfs pre/post numbering of the dominator tree for O(1) dominance
	// queries.
	pre, post map[*ir.Block]int
}

// NewDomTree computes the dominator tree of fn using the iterative
// algorithm of Cooper, Harvey and Kennedy. Unreachable blocks are ignored.
func NewDomTree(fn *ir.Function) *DomTree {
	d := &DomTree{
		fn:     fn,
		rpoNum: make(map[*ir.Block]int),
		idom:   make(map[*ir.Block]*ir.Block),
		kids:   make(map[*ir.Block][]*ir.Block),
		pre:    make(map[*ir.Block]int),
		post:   make(map[*ir.Block]int),
	}
	entry := fn.Entry()
	if entry == nil {
		return d
	}
	d.rpo = ReversePostorder(fn)
	for i, b := range d.rpo {
		d.rpoNum[b] = i
	}

	d.idom[entry] = entry
	changed := true
	for changed {
		changed = false
		for _, b := range d.rpo[1:] {
			var newIdom *ir.Block
			for _, p := range b.Preds {
				if _, processed := d.idom[p]; !processed {
					continue
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = d.intersect(p, newIdom)
				}
			}
			if newIdom != nil && d.idom[b] != newIdom {
				d.idom[b] = newIdom
				changed = true
			}
		}
	}
	for _, b := range d.rpo {
		if b != entry {
			d.kids[d.idom[b]] = append(d.kids[d.idom[b]], b)
		}
	}
	// DFS numbering for dominance queries.
	clock := 0
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		clock++
		d.pre[b] = clock
		for _, k := range d.kids[b] {
			dfs(k)
		}
		clock++
		d.post[b] = clock
	}
	dfs(entry)
	return d
}

func (d *DomTree) intersect(b1, b2 *ir.Block) *ir.Block {
	f1, f2 := b1, b2
	for f1 != f2 {
		for d.rpoNum[f1] > d.rpoNum[f2] {
			f1 = d.idom[f1]
		}
		for d.rpoNum[f2] > d.rpoNum[f1] {
			f2 = d.idom[f2]
		}
	}
	return f1
}

// Idom returns the immediate dominator of b (the entry's idom is itself).
func (d *DomTree) Idom(b *ir.Block) *ir.Block { return d.idom[b] }

// Children returns b's children in the dominator tree.
func (d *DomTree) Children(b *ir.Block) []*ir.Block { return d.kids[b] }

// RPO returns the blocks in reverse postorder.
func (d *DomTree) RPO() []*ir.Block { return d.rpo }

// Dominates reports whether a dominates b (reflexively).
func (d *DomTree) Dominates(a, b *ir.Block) bool {
	pa, ok := d.pre[a]
	if !ok {
		return false
	}
	pb, ok := d.pre[b]
	if !ok {
		return false
	}
	return pa <= pb && d.post[b] <= d.post[a]
}

// InstrDominates reports whether instruction a dominates instruction b:
// strictly earlier in the same block, or in a strictly dominating block.
// An instruction does not dominate itself.
func (d *DomTree) InstrDominates(a, b ir.Instr) bool {
	ba, bb := a.Parent(), b.Parent()
	if ba == bb {
		for _, in := range ba.Instrs {
			if in == a {
				return a != b
			}
			if in == b {
				return false
			}
		}
		return false
	}
	return ba != bb && d.Dominates(ba, bb)
}

// ReversePostorder returns fn's reachable blocks in reverse postorder.
func ReversePostorder(fn *ir.Function) []*ir.Block {
	entry := fn.Entry()
	if entry == nil {
		return nil
	}
	seen := make(map[*ir.Block]bool)
	var post []*ir.Block
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		seen[b] = true
		for _, s := range b.Succs {
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(entry)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// DominanceFrontiers computes the dominance frontier of every block using
// the standard algorithm over the dominator tree.
func DominanceFrontiers(d *DomTree) map[*ir.Block][]*ir.Block {
	df := make(map[*ir.Block][]*ir.Block)
	for _, b := range d.rpo {
		if len(b.Preds) < 2 {
			continue
		}
		for _, p := range b.Preds {
			runner := p
			for runner != nil && runner != d.idom[b] {
				if !containsBlock(df[runner], b) {
					df[runner] = append(df[runner], b)
				}
				next := d.idom[runner]
				if next == runner { // entry
					break
				}
				runner = next
			}
		}
	}
	return df
}

func containsBlock(s []*ir.Block, b *ir.Block) bool {
	for _, x := range s {
		if x == b {
			return true
		}
	}
	return false
}
