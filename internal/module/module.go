// Package module turns a set of MiniC source files into one analyzable
// whole program, incrementally.
//
// Each file is a module; `#include "name"` names a dependency on another
// module in the set. The package builds the dependency graph (cycles and
// unknown includes are positioned errors), assigns every module a
// transitive content hash — the hash covers the module's own source and
// the hashes of its direct dependencies, so editing a module changes
// exactly its own key and its dependents' — and compiles modules in
// parallel topological batches: every module in a batch depends only on
// earlier batches, so a batch compiles with pool.ForEach concurrency
// while the build stays deterministic.
//
// A module compiles against the *exports* of its transitive
// dependencies: struct declarations, global declarations and function
// prototypes, spliced (read-only) ahead of the module's own
// declarations. The per-module frontend runs parse → typecheck → lower
// → mem2reg → verify, producing an immutable per-module SSA program
// that a Cache retains across builds keyed by the content hash — a warm
// build recompiles only edited modules and their dependents, with every
// other module's frontend passes at zero runs. Linking (link.go) then
// deep-clones each module's owned globals and defined functions into a
// fresh ir.Program for the shared pointer/VFG/Γ phases.
package module

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"

	"github.com/valueflow/usher/internal/diag"
	"github.com/valueflow/usher/internal/lexer"
	"github.com/valueflow/usher/internal/token"
)

// File is one module source: a name (also used as the position file name
// and the include key) and its content.
type File struct {
	Name   string
	Source string
}

// Module is one node of the dependency graph.
type Module struct {
	Name   string
	Source string
	// Deps are the direct dependencies, sorted and deduplicated.
	Deps []string
	// Hash is the transitive content hash (hex): it covers Name, Source
	// and the hashes of Deps, so it changes exactly when the module or
	// anything it depends on changes.
	Hash string
	// Batch is the topological level: 0 for dependency-free modules,
	// 1 + max(dep batches) otherwise.
	Batch int

	includePos map[string]token.Pos
}

// Graph is the validated dependency graph of a module set.
type Graph struct {
	// Modules in link order: topological, ties broken by name. This
	// order is also the declaration order of the equivalent single-file
	// program (see Flatten).
	Modules []*Module
	byName  map[string]*Module
}

// NewGraph scans the includes of every file, validates the graph
// (duplicate module names, unknown includes, include cycles — all
// positioned diagnostics) and computes content hashes and batches.
func NewGraph(files []File) (*Graph, error) {
	g := &Graph{byName: make(map[string]*Module, len(files))}
	var diags diag.List
	var names []string
	for _, f := range files {
		if f.Name == "" {
			diags.Addf(diag.PhaseModule, token.Pos{}, "module with empty name")
			continue
		}
		if _, dup := g.byName[f.Name]; dup {
			diags.Addf(diag.PhaseModule, token.Pos{File: f.Name}, "duplicate module %q in the file set", f.Name)
			continue
		}
		m := &Module{Name: f.Name, Source: f.Source}
		m.Deps, m.includePos = scanIncludes(f.Name, f.Source)
		g.byName[f.Name] = m
		names = append(names, f.Name)
	}
	if err := diags.Err(); err != nil {
		return nil, err
	}
	sort.Strings(names)
	for _, name := range names {
		m := g.byName[name]
		for _, dep := range m.Deps {
			if dep == m.Name {
				diags.Addf(diag.PhaseModule, m.includePos[dep], "module %q includes itself", m.Name)
			} else if g.byName[dep] == nil {
				diags.Addf(diag.PhaseModule, m.includePos[dep], "module %q includes unknown module %q", m.Name, dep)
			}
		}
	}
	if err := diags.Err(); err != nil {
		return nil, err
	}
	if err := g.topoSort(names); err != nil {
		return nil, err
	}
	g.hash()
	return g, nil
}

// ByName returns the named module, or nil.
func (g *Graph) ByName(name string) *Module { return g.byName[name] }

// scanIncludes extracts `#include "name"` pairs with a raw token scan —
// no AST, so the dependency graph (and with it every content hash) is
// known before any module compiles. Lexical errors are ignored here;
// the parse pass of the module itself reports them with positions.
func scanIncludes(name, src string) ([]string, map[string]token.Pos) {
	lx := lexer.New(name, src)
	var deps []string
	pos := make(map[string]token.Pos)
	prev := token.Token{}
	for {
		t := lx.Next()
		if t.Kind == token.EOF {
			break
		}
		if prev.Kind == token.INCLUDE && t.Kind == token.STRING && t.Text != "" {
			if _, seen := pos[t.Text]; !seen {
				deps = append(deps, t.Text)
				pos[t.Text] = t.Pos
			}
		}
		prev = t
	}
	sort.Strings(deps)
	return deps, pos
}

// topoSort orders Modules topologically (Kahn), ties broken by module
// name, and assigns batches. A cycle is reported as a positioned error
// naming its members.
func (g *Graph) topoSort(names []string) error {
	indeg := make(map[string]int, len(names))
	dependents := make(map[string][]string, len(names))
	for _, name := range names {
		m := g.byName[name]
		indeg[name] = len(m.Deps)
		for _, dep := range m.Deps {
			dependents[dep] = append(dependents[dep], name)
		}
	}
	// ready is kept sorted; names was sorted and dependents preserve
	// per-dep insertion order, so a sorted insert keeps determinism.
	var ready []string
	for _, name := range names {
		if indeg[name] == 0 {
			ready = append(ready, name)
		}
	}
	for len(ready) > 0 {
		name := ready[0]
		ready = ready[1:]
		m := g.byName[name]
		for _, dep := range m.Deps {
			if d := g.byName[dep]; d.Batch >= m.Batch {
				m.Batch = d.Batch + 1
			}
		}
		g.Modules = append(g.Modules, m)
		for _, dependent := range dependents[name] {
			indeg[dependent]--
			if indeg[dependent] == 0 {
				i := sort.SearchStrings(ready, dependent)
				ready = append(ready, "")
				copy(ready[i+1:], ready[i:])
				ready[i] = dependent
			}
		}
	}
	if len(g.Modules) == len(names) {
		return nil
	}
	// Every unplaced module is on or downstream of a cycle; report the
	// lexicographically first unplaced module's include that closes one.
	var diags diag.List
	placed := make(map[string]bool, len(g.Modules))
	for _, m := range g.Modules {
		placed[m.Name] = true
	}
	var stuck []string
	for _, name := range names {
		if !placed[name] {
			stuck = append(stuck, name)
		}
	}
	m := g.byName[stuck[0]]
	cycle := g.findCycle(m)
	pos := m.includePos[m.Deps[0]]
	if len(cycle) > 1 {
		pos = m.includePos[cycle[1]]
	}
	diags.Addf(diag.PhaseModule, pos, "include cycle: %s", formatCycle(cycle))
	return diags.Err()
}

// findCycle walks unplaced dependencies from m until a module repeats,
// returning the cycle path starting and ending at the repeated module.
func (g *Graph) findCycle(m *Module) []string {
	seen := make(map[string]int)
	var path []string
	cur := m
	for {
		if i, ok := seen[cur.Name]; ok {
			return append(path[i:], cur.Name)
		}
		seen[cur.Name] = len(path)
		path = append(path, cur.Name)
		// Follow the first dependency that is itself stuck; one exists,
		// or cur would have been placed.
		next := ""
		for _, dep := range cur.Deps {
			d := g.byName[dep]
			if d != nil && !g.isPlaced(d) {
				next = dep
				break
			}
		}
		if next == "" {
			return path
		}
		cur = g.byName[next]
	}
}

func (g *Graph) isPlaced(m *Module) bool {
	for _, p := range g.Modules {
		if p == m {
			return true
		}
	}
	return false
}

func formatCycle(cycle []string) string {
	s := ""
	for i, name := range cycle {
		if i > 0 {
			s += " -> "
		}
		s += fmt.Sprintf("%q", name)
	}
	return s
}

// hash assigns transitive content hashes in link order (dependencies
// hash before dependents).
func (g *Graph) hash() {
	for _, m := range g.Modules {
		h := sha256.New()
		h.Write([]byte("usher-module\x00"))
		writeLenPrefixed(h, m.Name)
		writeLenPrefixed(h, m.Source)
		for _, dep := range m.Deps {
			writeLenPrefixed(h, dep)
			writeLenPrefixed(h, g.byName[dep].Hash)
		}
		m.Hash = hex.EncodeToString(h.Sum(nil))
	}
}

func writeLenPrefixed(h interface{ Write(p []byte) (int, error) }, s string) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
	h.Write(n[:])
	h.Write([]byte(s))
}

// SetHash is one hash over the whole module set (every module name and
// transitive hash, in link order): the content key of the linked
// program. usherd keys multi-file sessions by (level, SetHash).
func (g *Graph) SetHash() string {
	h := sha256.New()
	h.Write([]byte("usher-module-set\x00"))
	for _, m := range g.Modules {
		writeLenPrefixed(h, m.Name)
		writeLenPrefixed(h, m.Hash)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Batches groups Modules by topological level: batch 0 has no
// dependencies, batch k depends only on batches < k. Modules within a
// batch are independent and compile in parallel.
func (g *Graph) Batches() [][]*Module {
	max := 0
	for _, m := range g.Modules {
		if m.Batch > max {
			max = m.Batch
		}
	}
	out := make([][]*Module, max+1)
	for _, m := range g.Modules {
		out[m.Batch] = append(out[m.Batch], m)
	}
	return out
}

// Closure returns m's transitive dependencies in link order (m itself
// excluded). The order is a pure function of the closure subgraph —
// unrelated modules cannot affect it — so a module's compile unit is
// fully determined by its own source and its dependencies' hashes.
func (g *Graph) Closure(m *Module) []*Module {
	in := make(map[string]bool)
	var visit func(name string)
	visit = func(name string) {
		if in[name] {
			return
		}
		in[name] = true
		for _, dep := range g.byName[name].Deps {
			visit(dep)
		}
	}
	for _, dep := range m.Deps {
		visit(dep)
	}
	var out []*Module
	for _, cm := range g.Modules {
		if in[cm.Name] {
			out = append(out, cm)
		}
	}
	return out
}

// Flatten renders the module set as the equivalent single translation
// unit: module sources concatenated in link order with include
// directives dropped. Compiling the flattened source through the
// single-file pipeline yields the same warning sites as the multi-file
// build (pinned by tests) — positions differ, program behavior does not.
func Flatten(files []File) (string, error) {
	g, err := NewGraph(files)
	if err != nil {
		return "", err
	}
	out := ""
	for _, m := range g.Modules {
		out += stripIncludes(m.Source) + "\n"
	}
	return out, nil
}

// stripIncludes drops every line that holds exactly one include
// directive, keeping all other lines byte-for-byte.
func stripIncludes(src string) string {
	lines := splitLines(src)
	out := ""
	for _, line := range lines {
		if isIncludeLine(line) {
			continue
		}
		out += line
	}
	return out
}

// splitLines splits keeping terminators, recognizing \n, \r\n and \r.
func splitLines(src string) []string {
	var lines []string
	start := 0
	for i := 0; i < len(src); i++ {
		switch src[i] {
		case '\n':
			lines = append(lines, src[start:i+1])
			start = i + 1
		case '\r':
			end := i + 1
			if end < len(src) && src[end] == '\n' {
				end++
			}
			lines = append(lines, src[start:end])
			start = end
			i = end - 1
		}
	}
	if start < len(src) {
		lines = append(lines, src[start:])
	}
	return lines
}

// isIncludeLine reports whether the line consists of exactly one
// `#include "name"` directive (plus whitespace).
func isIncludeLine(line string) bool {
	lx := lexer.New("", line)
	t1 := lx.Next()
	if t1.Kind != token.INCLUDE {
		return false
	}
	t2 := lx.Next()
	if t2.Kind != token.STRING {
		return false
	}
	return lx.Next().Kind == token.EOF
}
