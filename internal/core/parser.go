package core

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"strings"
)

// The Domino configuration DSL (Fig. 11): one causal chain per line,
// nodes joined by "-->". Lines may also declare aliases that OR
// feature names together, letting chains be written at the
// cause-class level while detection stays per-direction:
//
//	# comment
//	alias poor_channel = ul_channel_degrades | dl_channel_degrades
//	poor_channel --> forward_delay_up --> jitter_buffer_drain
//
// Parsing produces a Graph; overlapping chains share nodes and edges.

var nodeNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// ParseChains parses DSL text into a graph.
func ParseChains(r io.Reader) (*Graph, error) {
	g := NewGraph()
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(line, "alias ") {
			if err := parseAlias(g, strings.TrimPrefix(line, "alias ")); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		parts := strings.Split(line, "-->")
		if len(parts) < 2 {
			return nil, fmt.Errorf("line %d: chain needs at least one '-->': %q", lineNo, line)
		}
		var nodes []string
		for _, p := range parts {
			name := strings.TrimSpace(p)
			if !nodeNameRE.MatchString(name) {
				return nil, fmt.Errorf("line %d: invalid node name %q", lineNo, name)
			}
			nodes = append(nodes, name)
		}
		for i := 0; i+1 < len(nodes); i++ {
			g.AddEdge(nodes[i], nodes[i+1])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

func parseAlias(g *Graph, rest string) error {
	eq := strings.SplitN(rest, "=", 2)
	if len(eq) != 2 {
		return fmt.Errorf("alias needs '=': %q", rest)
	}
	name := strings.TrimSpace(eq[0])
	if !nodeNameRE.MatchString(name) {
		return fmt.Errorf("invalid alias name %q", name)
	}
	var members []string
	for _, m := range strings.Split(eq[1], "|") {
		m = strings.TrimSpace(m)
		if !nodeNameRE.MatchString(m) {
			return fmt.Errorf("invalid alias member %q", m)
		}
		members = append(members, m)
	}
	if len(members) == 0 {
		return fmt.Errorf("alias %q has no members", name)
	}
	g.AddAlias(name, members)
	return nil
}

// ParseChainsString parses DSL text from a string.
func ParseChainsString(s string) (*Graph, error) {
	return ParseChains(strings.NewReader(s))
}
