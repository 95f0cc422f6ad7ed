// Package pattern implements OptImatch problem patterns: the JSON object the
// paper's web GUI produces (Figure 5), a fluent Go builder for constructing
// the same object programmatically, and the handler-based compiler that
// turns a pattern into an executable SPARQL query (Algorithm 2, Figure 6).
//
// A problem pattern is a set of plan operators (pops) with properties and
// relationships: "an NLJOIN whose inner input is a TBSCAN with cardinality
// greater than 100". Relationships are either Immediate Child (one stream
// hop) or Descendant (any number of hops); properties compare an operator
// property against a constant or against another operator's property.
package pattern

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Relationship signs.
const (
	SignImmediateChild = "Immediate Child"
	SignDescendant     = "Descendant"
)

// Pseudo operator types understood by the compiler in addition to concrete
// LOLEPOP names.
const (
	TypeAny     = "ANY"     // matches any operator
	TypeJoin    = "JOIN"    // any join method (NLJOIN, HSJOIN, MSJOIN, ZZJOIN)
	TypeScan    = "SCAN"    // TBSCAN or IXSCAN
	TypeBaseObj = "BASE OB" // a base object (table/index), not a LOLEPOP
)

// Stream relationship property IDs (unprefixed predicate names).
const (
	RelOuterInput = "hasOuterInputStream"
	RelInnerInput = "hasInnerInputStream"
	RelInput      = "hasInputStream"
	RelOutput     = "hasOutputStream" // redundant reverse edge, kept for Figure 5 fidelity
)

// PropRef references another pop's property for cross-operator comparisons
// (e.g. Pattern D: a SORT whose input has lower I/O cost than the SORT
// itself).
type PropRef struct {
	Pop int    `json:"pop"`
	ID  string `json:"id"`
}

// PlanRef references a plan-level property scaled by a factor, for
// plan-relative constraints such as "operator cost above 50% of the plan's
// total cost" (the paper's second motivating question, Section 1.1).
type PlanRef struct {
	ID     string  `json:"id"`               // plan property, e.g. hasTotalCost
	Factor float64 `json:"factor,omitempty"` // scale; 0 means 1
}

// RelDistinct is the pseudo relationship asserting two handlers bind to
// different resources ("isDistinctFrom"). Needed for patterns like a shared
// common subexpression with two distinct consumers.
const RelDistinct = "isDistinctFrom"

// SignAbsent asserts a property is NOT present on the pop (compiled to
// FILTER NOT EXISTS). Needed for negative patterns such as a join carrying
// no join predicate (a cartesian product).
const SignAbsent = "ABSENT"

// Property is one entry of a pop's popProperties array: either a
// relationship (Sign is Immediate Child/Descendant and Value is the target
// pop ID) or a value constraint (Sign is a comparison operator and Value or
// ValueOf is the right-hand side).
type Property struct {
	ID      string      `json:"id"`
	Value   interface{} `json:"value,omitempty"`
	ValueOf *PropRef    `json:"valueOf,omitempty"`
	PlanOf  *PlanRef    `json:"planOf,omitempty"`
	Sign    string      `json:"sign,omitempty"`
}

// IsRelationship reports whether the property is a stream relationship.
func (p Property) IsRelationship() bool {
	return p.Sign == SignImmediateChild || p.Sign == SignDescendant
}

// TargetPop returns the related pop ID for a relationship property.
func (p Property) TargetPop() (int, error) {
	switch v := p.Value.(type) {
	case float64:
		return int(v), nil
	case int:
		return v, nil
	case json.Number:
		i, err := v.Int64()
		return int(i), err
	default:
		return 0, fmt.Errorf("pattern: relationship %q value %v is not a pop id", p.ID, p.Value)
	}
}

// Pop is one operator node of the pattern.
type Pop struct {
	ID         int        `json:"ID"`
	Type       string     `json:"type"`
	Alias      string     `json:"alias,omitempty"`
	Properties []Property `json:"popProperties"`
}

// Pattern is a complete problem pattern, the Go form of the paper's
// Figure 5 JSON object.
type Pattern struct {
	Name        string            `json:"name,omitempty"`
	Description string            `json:"description,omitempty"`
	Pops        []Pop             `json:"pops"`
	PlanDetails map[string]string `json:"planDetails,omitempty"`
}

// MarshalJSON ensures planDetails always serializes (Figure 5 includes the
// key even when empty).
func (p *Pattern) MarshalJSON() ([]byte, error) {
	type alias Pattern
	tmp := struct {
		*alias
		PlanDetails map[string]string `json:"planDetails"`
	}{alias: (*alias)(p), PlanDetails: p.PlanDetails}
	if tmp.PlanDetails == nil {
		tmp.PlanDetails = map[string]string{}
	}
	return json.Marshal(tmp)
}

// FromJSON decodes a pattern from its JSON form.
func FromJSON(data []byte) (*Pattern, error) {
	var p Pattern
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("pattern: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// ToJSON encodes the pattern.
func (p *Pattern) ToJSON() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}

// Pop returns the pop with the given ID, or nil.
func (p *Pattern) Pop(id int) *Pop {
	for i := range p.Pops {
		if p.Pops[i].ID == id {
			return &p.Pops[i]
		}
	}
	return nil
}

// SortedPops returns the pops ordered by ID.
func (p *Pattern) SortedPops() []Pop {
	out := append([]Pop(nil), p.Pops...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// validSigns lists the comparison signs accepted in value constraints.
var validSigns = map[string]bool{
	"": true, "=": true, "!=": true, ">": true, "<": true, ">=": true, "<=": true,
	SignAbsent: true,
}

// isName reports whether s can be pasted into the generated query as the
// local part of a prefixed name (after "preduri:") or as a variable name
// (after "?"): non-empty, and only the ASCII letters, digits, '_' and '-' the
// SPARQL lexer reads as part of either.
func isName(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '-') {
			return false
		}
	}
	return s != ""
}

const nameRule = "want letters, digits, '_' or '-'"

// Validate checks everything Compile relies on: positive unique IDs, known
// signs, resolvable relationship targets and property references, handler
// aliases unique regardless of case, and that every name the compiler pastes
// into the query unquoted (aliases, property ids, planDetails keys) is a name
// there. A pattern that validates compiles.
func (p *Pattern) Validate() error {
	if len(p.Pops) == 0 {
		return fmt.Errorf("pattern %q: no pops", p.Name)
	}
	seen := make(map[int]bool)
	for _, pop := range p.Pops {
		if pop.ID <= 0 {
			return fmt.Errorf("pattern %q: pop id %d must be positive", p.Name, pop.ID)
		}
		if seen[pop.ID] {
			return fmt.Errorf("pattern %q: duplicate pop id %d", p.Name, pop.ID)
		}
		seen[pop.ID] = true
		if strings.TrimSpace(pop.Type) == "" {
			return fmt.Errorf("pattern %q: pop %d has empty type", p.Name, pop.ID)
		}
		if pop.Alias != "" && !isName(pop.Alias) {
			return fmt.Errorf("pattern %q: pop %d alias %q is not a handler name (%s)", p.Name, pop.ID, pop.Alias, nameRule)
		}
	}
	// An alias names a result column found case-insensitively: no two may fold alike.
	aliasOf := make(map[string]int, len(p.Pops)) // upper-cased alias -> pop id
	for _, pop := range p.Pops {
		alias := p.HandlerAlias(pop)
		if other, dup := aliasOf[strings.ToUpper(alias)]; dup {
			return fmt.Errorf("pattern %q: pops %d and %d share handler alias %q (aliases are case-insensitive)", p.Name, other, pop.ID, alias)
		}
		aliasOf[strings.ToUpper(alias)] = pop.ID
	}
	for _, pop := range p.Pops {
		for _, prop := range pop.Properties {
			if prop.ID == RelDistinct {
				target, err := prop.TargetPop()
				if err != nil {
					return fmt.Errorf("pattern %q: pop %d: %w", p.Name, pop.ID, err)
				}
				if !seen[target] {
					return fmt.Errorf("pattern %q: pop %d isDistinctFrom references unknown pop %d", p.Name, pop.ID, target)
				}
				if target == pop.ID {
					return fmt.Errorf("pattern %q: pop %d isDistinctFrom itself", p.Name, pop.ID)
				}
				continue
			}
			if prop.IsRelationship() || prop.ID == RelOutput {
				target, err := prop.TargetPop()
				if err != nil {
					return fmt.Errorf("pattern %q: pop %d: %w", p.Name, pop.ID, err)
				}
				if !seen[target] {
					return fmt.Errorf("pattern %q: pop %d relationship %s references unknown pop %d", p.Name, pop.ID, prop.ID, target)
				}
				if prop.IsRelationship() && prop.ID != RelOuterInput && prop.ID != RelInnerInput && prop.ID != RelInput {
					return fmt.Errorf("pattern %q: pop %d: unknown relationship property %q", p.Name, pop.ID, prop.ID)
				}
				continue
			}
			if !isName(prop.ID) {
				return fmt.Errorf("pattern %q: pop %d property id %q is not a predicate name (%s)", p.Name, pop.ID, prop.ID, nameRule)
			}
			if !validSigns[prop.Sign] {
				return fmt.Errorf("pattern %q: pop %d property %s has unknown sign %q", p.Name, pop.ID, prop.ID, prop.Sign)
			}
			if prop.Sign == SignAbsent {
				if prop.Value != nil || prop.ValueOf != nil || prop.PlanOf != nil {
					return fmt.Errorf("pattern %q: pop %d property %s: ABSENT takes no value", p.Name, pop.ID, prop.ID)
				}
				continue
			}
			switch {
			case prop.ValueOf != nil:
				if !seen[prop.ValueOf.Pop] {
					return fmt.Errorf("pattern %q: pop %d property %s references unknown pop %d", p.Name, pop.ID, prop.ID, prop.ValueOf.Pop)
				}
				if !isName(prop.ValueOf.ID) {
					return fmt.Errorf("pattern %q: pop %d property %s: valueOf id %q is not a predicate name (%s)", p.Name, pop.ID, prop.ID, prop.ValueOf.ID, nameRule)
				}
			case prop.PlanOf != nil:
				if !isName(prop.PlanOf.ID) {
					return fmt.Errorf("pattern %q: pop %d property %s: planOf id %q is not a predicate name (%s)", p.Name, pop.ID, prop.ID, prop.PlanOf.ID, nameRule)
				}
			case prop.Value == nil:
				return fmt.Errorf("pattern %q: pop %d property %s has no value", p.Name, pop.ID, prop.ID)
			default:
				if _, err := renderValue(prop.Sign, prop.Value); err != nil {
					return fmt.Errorf("pattern %q: pop %d property %s: %w", p.Name, pop.ID, prop.ID, err)
				}
			}
		}
	}
	for _, k := range sortedKeys(p.PlanDetails) {
		if !isName(k) {
			return fmt.Errorf("pattern %q: planDetails key %q is not a predicate name (%s)", p.Name, k, nameRule)
		}
		if _, _, err := splitConstraint(p.PlanDetails[k]); err != nil {
			return fmt.Errorf("pattern %q: planDetails[%s]: %w", p.Name, k, err)
		}
	}
	return nil
}

// HandlerAlias returns the alias used to tag this pop's result handler: the
// explicit alias if set, "TOP" for the lowest pop ID, otherwise a sanitized
// type+ID name ("ANY2", "BASE4").
func (p *Pattern) HandlerAlias(pop Pop) string {
	if pop.Alias != "" {
		return pop.Alias
	}
	lowest := p.Pops[0].ID
	for _, other := range p.Pops {
		if other.ID < lowest {
			lowest = other.ID
		}
	}
	if pop.ID == lowest {
		return "TOP"
	}
	t := pop.Type
	if t == TypeBaseObj {
		t = "BASE"
	}
	t = strings.Map(func(r rune) rune {
		if r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' {
			return r
		}
		return -1
	}, strings.ToUpper(t))
	return fmt.Sprintf("%s%d", t, pop.ID)
}
