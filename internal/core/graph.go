package core

import (
	"fmt"
	"sort"
	"strings"
)

// NodeKind classifies graph nodes for reporting.
type NodeKind int

// Node kinds: causes are roots (no incoming edges), consequences are
// sinks (no outgoing edges), everything else is intermediate.
const (
	KindCause NodeKind = iota
	KindIntermediate
	KindConsequence
)

// Graph is the user-configurable causal DAG. Nodes are feature names or
// aliases; edges point from cause toward consequence.
type Graph struct {
	// edges[from] lists direct successors.
	edges map[string][]string
	// aliases maps a node name to the feature names it ORs over.
	aliases map[string][]string
	// order preserves first-mention ordering for stable output.
	order []string
	seen  map[string]bool
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{
		edges:   make(map[string][]string),
		aliases: make(map[string][]string),
		seen:    make(map[string]bool),
	}
}

func (g *Graph) touch(name string) {
	if !g.seen[name] {
		g.seen[name] = true
		g.order = append(g.order, name)
	}
}

// AddEdge inserts a directed edge (idempotent).
func (g *Graph) AddEdge(from, to string) {
	g.touch(from)
	g.touch(to)
	for _, t := range g.edges[from] {
		if t == to {
			return
		}
	}
	g.edges[from] = append(g.edges[from], to)
}

// AddAlias declares name as the OR of the given feature names.
func (g *Graph) AddAlias(name string, features []string) {
	g.touch(name)
	g.aliases[name] = features
}

// Aliases returns the alias table.
func (g *Graph) Aliases() map[string][]string { return g.aliases }

// Nodes returns all node names in first-mention order.
func (g *Graph) Nodes() []string { return append([]string(nil), g.order...) }

// Kind classifies a node by its connectivity.
func (g *Graph) Kind(name string) NodeKind {
	hasOut := len(g.edges[name]) > 0
	hasIn := false
	for _, succs := range g.edges {
		for _, s := range succs {
			if s == name {
				hasIn = true
			}
		}
	}
	switch {
	case hasOut && !hasIn:
		return KindCause
	case !hasOut && hasIn:
		return KindConsequence
	default:
		return KindIntermediate
	}
}

// Causes returns root nodes in stable order.
func (g *Graph) Causes() []string { return g.byKind(KindCause) }

// Consequences returns sink nodes in stable order.
func (g *Graph) Consequences() []string { return g.byKind(KindConsequence) }

func (g *Graph) byKind(k NodeKind) []string {
	var out []string
	for _, n := range g.order {
		if len(g.edges[n]) == 0 && g.indegree(n) == 0 {
			continue // pure alias, not part of the DAG
		}
		if g.Kind(n) == k {
			out = append(out, n)
		}
	}
	return out
}

func (g *Graph) indegree(name string) int {
	n := 0
	for _, succs := range g.edges {
		for _, s := range succs {
			if s == name {
				n++
			}
		}
	}
	return n
}

// Validate checks the graph is a DAG and aliases reference no edges.
func (g *Graph) Validate() error {
	// Cycle detection via DFS colors.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int)
	var visit func(n string) error
	visit = func(n string) error {
		color[n] = gray
		for _, s := range g.edges[n] {
			switch color[s] {
			case gray:
				return fmt.Errorf("core: causal graph has a cycle through %q", s)
			case white:
				if err := visit(s); err != nil {
					return err
				}
			}
		}
		color[n] = black
		return nil
	}
	for _, n := range g.order {
		if color[n] == white {
			if err := visit(n); err != nil {
				return err
			}
		}
	}
	for name := range g.aliases {
		if len(g.aliases[name]) == 0 {
			return fmt.Errorf("core: alias %q has no members", name)
		}
	}
	return nil
}

// Chain is one root-to-sink path through the graph: the unit the paper
// counts (24 chains in the default configuration).
type Chain struct {
	ID    int
	Nodes []string // cause first, consequence last
}

// Cause returns the chain's root node.
func (c Chain) Cause() string { return c.Nodes[0] }

// Consequence returns the chain's sink node.
func (c Chain) Consequence() string { return c.Nodes[len(c.Nodes)-1] }

// String renders the chain in DSL form.
func (c Chain) String() string { return strings.Join(c.Nodes, " --> ") }

// EnumerateChains lists every root-to-sink path in stable order and
// assigns chain IDs (1-based, as in the paper's generated code).
func (g *Graph) EnumerateChains() []Chain {
	var chains []Chain
	var path []string
	var dfs func(n string)
	dfs = func(n string) {
		path = append(path, n)
		succs := g.edges[n]
		if len(succs) == 0 {
			chains = append(chains, Chain{Nodes: append([]string(nil), path...)})
		}
		for _, s := range succs {
			dfs(s)
		}
		path = path[:len(path)-1]
	}
	for _, n := range g.Causes() {
		dfs(n)
	}
	sort.SliceStable(chains, func(i, j int) bool {
		return strings.Join(chains[i].Nodes, "\x00") < strings.Join(chains[j].Nodes, "\x00")
	})
	for i := range chains {
		chains[i].ID = i + 1
	}
	return chains
}
