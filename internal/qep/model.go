// Package qep models DB2-style query execution plans (QEPs): a tree of
// LOLEPOPs (LOw LEvel Plan OPerators) with costs, cardinalities and typed
// input streams, plus the base objects (tables, indexes) the plan touches.
//
// The package parses and writes the OptImatch explain format (OEF), a
// faithful subset of IBM db2exfmt output: a header with statement text and
// total cost, a "Plan Details" section with one block per operator carrying
// its properties, arguments, predicates and input streams, and a "Base
// Objects" section with object statistics. It can also render the
// Figure-1-style ASCII plan graph for human consumption.
package qep

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// StreamKind classifies an operator input stream. DB2 distinguishes the
// outer (left) and inner (right) inputs of join operators from the generic
// input of unary operators.
type StreamKind uint8

// Stream kinds.
const (
	GeneralStream StreamKind = iota
	OuterStream
	InnerStream
)

// String returns the OEF spelling of the stream kind.
func (k StreamKind) String() string {
	switch k {
	case OuterStream:
		return "OUTER"
	case InnerStream:
		return "INNER"
	default:
		return "GENERAL"
	}
}

// ParseStreamKind parses the OEF spelling.
func ParseStreamKind(s string) (StreamKind, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "OUTER":
		return OuterStream, nil
	case "INNER":
		return InnerStream, nil
	case "GENERAL", "":
		return GeneralStream, nil
	default:
		return GeneralStream, fmt.Errorf("qep: unknown stream type %q", s)
	}
}

// JoinModifier is the outer-join marker rendered as a prefix symbol on the
// operator name in plan graphs ('>' left outer, '<' right outer, '^' early
// out, per the paper's Figure 7).
type JoinModifier uint8

// Join modifiers.
const (
	InnerJoin JoinModifier = iota
	LeftOuterJoin
	RightOuterJoin
	EarlyOutJoin
)

// Prefix returns the plan-graph prefix symbol ("" for a plain operator).
func (m JoinModifier) Prefix() string {
	switch m {
	case LeftOuterJoin:
		return ">"
	case RightOuterJoin:
		return "<"
	case EarlyOutJoin:
		return "^"
	default:
		return ""
	}
}

// Description returns the OEF modifier line text.
func (m JoinModifier) Description() string {
	switch m {
	case LeftOuterJoin:
		return "Left Outer Join"
	case RightOuterJoin:
		return "Right Outer Join"
	case EarlyOutJoin:
		return "Early Out Join"
	default:
		return ""
	}
}

// Input is one input stream of an operator: either another operator or a
// base object, never both.
type Input struct {
	Kind    StreamKind
	Op      *Operator   // non-nil for an operator input
	Obj     *BaseObject // non-nil for a base object input
	Rows    float64     // estimated rows flowing through the stream
	Columns []string    // column names carried by the stream
}

// Operator is one LOLEPOP.
type Operator struct {
	ID          int
	Type        string // NLJOIN, HSJOIN, MSJOIN, TBSCAN, IXSCAN, FETCH, SORT, GRPBY, TEMP, RETURN, ...
	JoinMod     JoinModifier
	TotalCost   float64           // cumulative total cost (self + all inputs)
	IOCost      float64           // cumulative I/O cost
	CPUCost     float64           // cumulative CPU cost
	FirstRow    float64           // cumulative first-row cost
	Buffers     float64           // estimated bufferpool buffers
	Cardinality float64           // estimated rows flowing out
	Args        map[string]string // nil when the operator has none
	Predicates  []string
	Inputs      []Input
	// Parents lists the consumers, the first one first. Plans are trees
	// except for shared common subexpressions (a TEMP with multiple
	// consumers, the paper's Section 2.2 ambiguity example), which make the
	// plan a DAG.
	Parents []*Operator
}

// Outer returns the outer input operator, or nil.
func (o *Operator) Outer() *Operator { return o.inputOp(OuterStream) }

// Inner returns the inner input operator, or nil.
func (o *Operator) Inner() *Operator { return o.inputOp(InnerStream) }

func (o *Operator) inputOp(kind StreamKind) *Operator {
	for _, in := range o.Inputs {
		if in.Kind == kind && in.Op != nil {
			return in.Op
		}
	}
	return nil
}

// InputOps returns all operator inputs in stream order.
func (o *Operator) InputOps() []*Operator {
	var out []*Operator
	for _, in := range o.Inputs {
		if in.Op != nil {
			out = append(out, in.Op)
		}
	}
	return out
}

// Object returns the base object this operator reads (for scans/fetches), or
// nil.
func (o *Operator) Object() *BaseObject {
	for _, in := range o.Inputs {
		if in.Obj != nil {
			return in.Obj
		}
	}
	return nil
}

// SelfCost is the operator's own cost: its cumulative cost minus the
// cumulative costs of its operator inputs. This is the paper's
// hasTotalCostIncrease derived property.
func (o *Operator) SelfCost() float64 {
	c := o.TotalCost
	for _, in := range o.Inputs {
		if in.Op != nil {
			c -= in.Op.TotalCost
		}
	}
	if c < 0 {
		return 0
	}
	return c
}

// IsJoinType reports whether typ names a join method: the one list of them.
func IsJoinType(typ string) bool {
	switch typ {
	case "NLJOIN", "HSJOIN", "MSJOIN", "ZZJOIN":
		return true
	}
	return false
}

// IsScanType reports whether typ names a scan: the one list of them.
func IsScanType(typ string) bool { return typ == "TBSCAN" || typ == "IXSCAN" }

// IsJoin reports whether the operator is any join method.
func (o *Operator) IsJoin() bool { return IsJoinType(o.Type) }

// Class buckets the operator type for coarse pattern matching ("type JOIN"
// in the paper's Pattern B means any join method).
func (o *Operator) Class() string {
	switch {
	case o.IsJoin():
		return "JOIN"
	case IsScanType(o.Type):
		return "SCAN"
	case o.Type == "SORT":
		return "SORT"
	case o.Type == "GRPBY":
		return "AGGREGATION"
	default:
		return o.Type
	}
}

// DisplayName is the prefixed name shown in plan graphs, e.g. ">HSJOIN".
func (o *Operator) DisplayName() string { return o.JoinMod.Prefix() + o.Type }

// BaseObject is a table, index or other schema object referenced by a plan.
type BaseObject struct {
	Name        string
	Type        string // TABLE, INDEX, MQT, VIEW
	Cardinality float64
	Columns     []string
}

// Plan is a complete query execution plan.
type Plan struct {
	ID        string // statement identifier, e.g. "Q42"
	Statement string // SQL text (may be multi-line)
	TotalCost float64
	Root      *Operator
	Objects   map[string]*BaseObject

	ops []*Operator // by ascending ID, registered through AddOperator only: what Ops returns and Op searches
}

// NewPlan returns an empty plan with an initialized object map.
func NewPlan(id string) *Plan {
	return &Plan{ID: id, Objects: make(map[string]*BaseObject)}
}

// AddOperator registers op; it returns an error on a duplicate ID.
func (p *Plan) AddOperator(op *Operator) error {
	// Explain files and generators number operators upwards: mostly an append.
	i := len(p.ops)
	for i > 0 && p.ops[i-1].ID > op.ID {
		i--
	}
	if i > 0 && p.ops[i-1].ID == op.ID {
		return fmt.Errorf("qep: duplicate operator id %d", op.ID)
	}
	p.ops = slices.Insert(p.ops, i, op)
	return nil
}

// Op returns the operator numbered id, or nil.
func (p *Plan) Op(id int) *Operator {
	// Operators are mostly numbered 1 to n, which puts id at id-1.
	if 0 < id && id <= len(p.ops) && p.ops[id-1].ID == id {
		return p.ops[id-1]
	}
	i, found := slices.BinarySearchFunc(p.ops, id, func(op *Operator, id int) int { return cmp.Compare(op.ID, id) })
	if !found {
		return nil
	}
	return p.ops[i]
}

// AddObject registers obj, returning the existing object when the name was
// already present.
func (p *Plan) AddObject(obj *BaseObject) *BaseObject {
	if existing, ok := p.Objects[obj.Name]; ok {
		return existing
	}
	p.Objects[obj.Name] = obj
	return obj
}

// Ops returns the plan's operators sorted by ID. The slice is the plan's own,
// kept in order by AddOperator and handed out on every call (parsing,
// transforming and writing a plan and every @ALIAS(COLUMNS) expansion walk
// it): callers must treat it as read-only.
func (p *Plan) Ops() []*Operator { return p.ops }

// NumOps reports the number of LOLEPOPs in the plan.
func (p *Plan) NumOps() int { return len(p.ops) }

// Link wires child (operator or object) as an input of parent and records
// the consumer. Exactly one of childOp/childObj must be non-nil. Linking the
// same child under several parents models a shared common subexpression.
func (p *Plan) Link(parent *Operator, kind StreamKind, childOp *Operator, childObj *BaseObject, rows float64, cols []string) {
	parent.Inputs = append(parent.Inputs, Input{Kind: kind, Op: childOp, Obj: childObj, Rows: rows, Columns: cols})
	if childOp != nil {
		childOp.Parents = append(childOp.Parents, parent)
	}
}

// Resolve finalizes the plan after construction: it determines the root
// (the unique operator without a parent) and validates tree shape.
func (p *Plan) Resolve() error {
	if len(p.ops) == 0 {
		return fmt.Errorf("qep: plan %s has no operators", p.ID)
	}
	var roots []*Operator
	for _, op := range p.Ops() {
		if len(op.Parents) == 0 {
			roots = append(roots, op)
		}
	}
	if len(roots) != 1 {
		ids := make([]int, len(roots))
		for i, r := range roots {
			ids[i] = r.ID
		}
		return fmt.Errorf("qep: plan %s has %d roots %v, want exactly 1", p.ID, len(roots), ids)
	}
	p.Root = roots[0]
	return nil
}

// Walk visits every operator exactly once in pre-order from the root
// (shared subexpressions are visited at their first occurrence).
func (p *Plan) Walk(fn func(*Operator)) {
	seen := make(map[int]bool, len(p.ops))
	var rec func(op *Operator)
	rec = func(op *Operator) {
		if seen[op.ID] {
			return
		}
		seen[op.ID] = true
		fn(op)
		for _, in := range op.Inputs {
			if in.Op != nil {
				rec(in.Op)
			}
		}
	}
	if p.Root != nil {
		rec(p.Root)
	}
}

// Descendants returns every operator strictly below op (pre-order, each
// operator once even when reachable along several consumer edges).
func Descendants(op *Operator) []*Operator {
	var out []*Operator
	seen := make(map[int]bool)
	var rec func(o *Operator)
	rec = func(o *Operator) {
		for _, in := range o.Inputs {
			if in.Op != nil {
				if seen[in.Op.ID] {
					continue
				}
				seen[in.Op.ID] = true
				out = append(out, in.Op)
				rec(in.Op)
			}
		}
	}
	rec(op)
	return out
}

// Validate performs structural sanity checks beyond Resolve: every non-root
// operator is reachable from the root, stream kinds are consistent for
// joins, and IDs are positive. Of several offending operators it names the
// lowest ID.
func (p *Plan) Validate() error {
	if p.Root == nil {
		if err := p.Resolve(); err != nil {
			return err
		}
	}
	reached := make(map[int]bool)
	p.Walk(func(op *Operator) { reached[op.ID] = true })
	for _, op := range p.Ops() {
		if op.ID <= 0 {
			return fmt.Errorf("qep: plan %s: non-positive operator id %d", p.ID, op.ID)
		}
		if !reached[op.ID] {
			return fmt.Errorf("qep: plan %s: operator %d unreachable from root", p.ID, op.ID)
		}
	}
	for _, op := range p.Ops() {
		if op.IsJoin() {
			var outer, inner int
			for _, in := range op.Inputs {
				switch in.Kind {
				case OuterStream:
					outer++
				case InnerStream:
					inner++
				}
			}
			if outer != 1 || inner != 1 {
				return fmt.Errorf("qep: plan %s: join operator %d has %d outer / %d inner inputs", p.ID, op.ID, outer, inner)
			}
		}
	}
	return nil
}
