package kb

import (
	"fmt"
	"strings"

	"optimatch/internal/transform"
)

// The handler tagging language (paper Section 2.3) embeds dynamic components
// in otherwise static recommendation text by prefixing handler aliases with
// '@'. Supported forms:
//
//	@ALIAS          the handler's display name ("NLJOIN(2)", "CUST_DIM")
//	@ALIAS.FIELD    a field: NAME, TYPE, ID, CARD, COST, IOCOST, SELFCOST
//	@ALIAS(FN)      a helper function: INPUT, PREDICATE, COLUMNS
//	@[A,B]          apply to several handlers at once, comma-joined;
//	                combines with .FIELD and (FN): @[A,B].NAME, @[A,B](INPUT)
//	@@              a literal '@'
//
// Templates are validated against the pattern's handler aliases when the
// entry is saved to the knowledge base (Algorithm 4), so a typo'd alias is
// rejected at authoring time, not at matching time.

// templateNode is one parsed segment of a template.
type templateNode struct {
	literal string   // non-empty for literal text
	aliases []string // handler aliases for a tag node
	cols    []int    // the aliases' columns, resolved by validateTemplate
	field   string   // .FIELD accessor, if any
	fn      string   // (FN) helper, if any
	render  render   // what the tag writes per column, resolved by validateTemplate
}

// parseTemplate splits a template into literal and tag nodes.
func parseTemplate(tmpl string) ([]templateNode, error) {
	var nodes []templateNode
	var lit strings.Builder
	i := 0
	flush := func() {
		if lit.Len() > 0 {
			nodes = append(nodes, templateNode{literal: lit.String()})
			lit.Reset()
		}
	}
	for i < len(tmpl) {
		c := tmpl[i]
		if c != '@' {
			lit.WriteByte(c)
			i++
			continue
		}
		if i+1 < len(tmpl) && tmpl[i+1] == '@' {
			lit.WriteByte('@')
			i += 2
			continue
		}
		flush()
		i++ // consume '@'
		node := templateNode{}
		if i < len(tmpl) && tmpl[i] == '[' {
			end := strings.IndexByte(tmpl[i:], ']')
			if end < 0 {
				return nil, fmt.Errorf("kb: unterminated @[...] group in template")
			}
			for _, a := range strings.Split(tmpl[i+1:i+end], ",") {
				a = strings.TrimSpace(a)
				if a == "" {
					return nil, fmt.Errorf("kb: empty alias in @[...] group")
				}
				node.aliases = append(node.aliases, a)
			}
			if len(node.aliases) == 0 {
				return nil, fmt.Errorf("kb: empty @[...] group")
			}
			i += end + 1
		} else {
			start := i
			for i < len(tmpl) && isAliasChar(tmpl[i]) {
				i++
			}
			if i == start {
				return nil, fmt.Errorf("kb: dangling '@' in template (use @@ for a literal '@')")
			}
			node.aliases = []string{tmpl[start:i]}
		}
		// Optional .FIELD — only when followed by an identifier.
		if i < len(tmpl) && tmpl[i] == '.' && i+1 < len(tmpl) && isAliasChar(tmpl[i+1]) {
			start := i + 1
			j := start
			for j < len(tmpl) && isAliasChar(tmpl[j]) {
				j++
			}
			node.field = tmpl[start:j]
			i = j
		}
		// Optional (FN).
		if node.field == "" && i < len(tmpl) && tmpl[i] == '(' {
			end := strings.IndexByte(tmpl[i:], ')')
			if end < 0 {
				return nil, fmt.Errorf("kb: unterminated helper call after @%s", node.aliases[0])
			}
			node.fn = strings.TrimSpace(tmpl[i+1 : i+end])
			if node.fn == "" {
				return nil, fmt.Errorf("kb: empty helper call after @%s", node.aliases[0])
			}
			i += end + 1
		}
		nodes = append(nodes, node)
	}
	flush()
	return nodes, nil
}

func isAliasChar(c byte) bool {
	return c >= 'A' && c <= 'Z' || c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '_'
}

// validateTemplate parses a template and resolves every tag's aliases to their
// columns and its field or helper to its render. It returns the parsed nodes,
// which the entry keeps so that expanding the template never parses or looks a
// name up again.
func validateTemplate(tmpl string, cols *transform.Columns) ([]templateNode, error) {
	nodes, err := parseTemplate(tmpl)
	if err != nil {
		return nil, err
	}
	for i, n := range nodes {
		if n.literal != "" {
			continue
		}
		for _, a := range n.aliases {
			c := cols.Index(a)
			if c < 0 {
				return nil, fmt.Errorf("kb: template references unknown handler @%s", a)
			}
			nodes[i].cols = append(nodes[i].cols, c)
		}
		var ok bool
		switch {
		case n.field != "":
			if nodes[i].render, ok = fields[strings.ToUpper(n.field)]; !ok {
				return nil, fmt.Errorf("kb: template uses unknown field .%s", n.field)
			}
		case n.fn != "":
			if nodes[i].render, ok = helpers[strings.ToUpper(n.fn)]; !ok {
				return nil, fmt.Errorf("kb: template uses unknown helper (%s)", n.fn)
			}
		default:
			nodes[i].render = transform.Match.Display
		}
	}
	return nodes, nil
}

// expand renders a validated template against one occurrence, adapting the
// stored recommendation to the context of the user-supplied plan.
func expand(nodes []templateNode, m transform.Match) string {
	var b strings.Builder
	for _, n := range nodes {
		if n.literal != "" {
			b.WriteString(n.literal)
			continue
		}
		for i, c := range n.cols {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(n.render(m, c))
		}
	}
	return b.String()
}
