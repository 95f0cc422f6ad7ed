package qep

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Parse reads a plan in the OptImatch explain format (OEF). The parser is
// tolerant of whitespace variations: all indentation is insignificant and
// key/value pairs split on the first ':'. Every plan it returns reads back
// the same from what Write prints for it: it refuses an argument and an
// object name Write could not spell (docs/FORMAT.md, "What the parser
// refuses"), and reads '+' and ',' alike as column separators. The plan
// holds none of the text: the strings it keeps are copied into one buffer of
// their own (own).
func Parse(text string) (*Plan, error) {
	pp := &planParser{plan: NewPlan("")}
	if err := pp.run(text); err != nil {
		return nil, err
	}
	own(pp.plan)
	return pp.plan, nil
}

// own copies every string p holds into one buffer, so that none of them is a
// substring of the text it was parsed from, which would keep that text alive
// as long as the plan. The buffer is sized first, by a walk that only reads,
// so that every string the builder's String returns shares its one array.
func own(p *Plan) {
	var b strings.Builder
	b.Grow(stringBytes(p))
	eachString(p, func(s string) string {
		b.WriteString(s)
		all := b.String()
		return all[len(all)-len(s):]
	})
}

// stringBytes is the length of every string eachString hands its function.
func stringBytes(p *Plan) int {
	n := len(p.ID) + len(p.Statement)
	list := func(l []string) {
		for _, s := range l {
			n += len(s)
		}
	}
	for _, op := range p.ops {
		n += len(op.Type)
		for k, v := range op.Args {
			n += len(k) + len(v)
		}
		list(op.Predicates)
		for _, in := range op.Inputs {
			list(in.Columns)
		}
	}
	for _, obj := range p.Objects {
		n += len(obj.Name) + len(obj.Type)
		list(obj.Columns)
	}
	return n
}

// eachString replaces every string p holds with f of it, map keys included.
// An operator without arguments keeps its nil map.
func eachString(p *Plan, f func(string) string) {
	list := func(l []string) {
		for i, s := range l {
			l[i] = f(s)
		}
	}
	p.ID, p.Statement = f(p.ID), f(p.Statement)
	for _, op := range p.ops {
		op.Type = f(op.Type)
		if op.Args != nil {
			args := make(map[string]string, len(op.Args))
			for k, v := range op.Args {
				args[f(k)] = f(v)
			}
			op.Args = args
		}
		list(op.Predicates)
		for _, in := range op.Inputs {
			list(in.Columns)
		}
	}
	objects := make(map[string]*BaseObject, len(p.Objects))
	for _, obj := range p.Objects {
		obj.Name, obj.Type = f(obj.Name), f(obj.Type)
		list(obj.Columns)
		objects[obj.Name] = obj
	}
	p.Objects = objects
}

// operatorHeader recognises an operator block header like
//
//  2. NLJOIN: (Nested Loop Join)
//  7. >HSJOIN: (Hash Join)
//
// and returns its number, its join modifier ("", ">", "<" or "^") and its
// type. It accepts the language of ^(\d+)\)\s+([<>^]?)([A-Z][A-Z0-9_]*): —
// opHeaderRe in the tests, which FuzzParse holds it to — by a scan that gives
// up, on nearly every line of the details section, at the first byte.
func operatorHeader(line string) (number, modifier, typ string, ok bool) {
	number, rest, ok := numbered(line)
	if !ok {
		return "", "", "", false
	}
	if rest != "" && (rest[0] == '<' || rest[0] == '>' || rest[0] == '^') {
		modifier, rest = rest[:1], rest[1:]
	}
	n := 0
	for n < len(rest) && ('A' <= rest[n] && rest[n] <= 'Z' || n > 0 && ('0' <= rest[n] && rest[n] <= '9' || rest[n] == '_')) {
		n++
	}
	if n == 0 || n == len(rest) || rest[n] != ':' {
		return "", "", "", false
	}
	return number, modifier, rest[:n], true
}

// streamHeader recognises an input stream header like
//
//  1. From Operator #3
//  2. From Object CUST_DIM
//
// and returns the operator's number or the object's name, the other empty. It
// accepts the language of ^\d+\)\s+From (Operator #(\d+)|Object (\S+)),
// streamHeaderRe in the tests.
func streamHeader(line string) (operator, object string, ok bool) {
	_, rest, ok := numbered(line)
	if !ok {
		return "", "", false
	}
	if op, found := strings.CutPrefix(rest, "From Operator #"); found {
		n := leadingDigits(op)
		return op[:n], "", n > 0
	}
	if obj, found := strings.CutPrefix(rest, "From Object "); found {
		n := 0
		for n < len(obj) && !isSpace(obj[n]) {
			n++
		}
		return "", obj[:n], n > 0
	}
	return "", "", false
}

// numbered splits a line that starts like a list item, `12)  rest` — the
// language of ^(\d+)\)\s+ — into the digits and what follows the white space.
func numbered(line string) (digits, rest string, ok bool) {
	n := leadingDigits(line)
	if n == 0 || n == len(line) || line[n] != ')' {
		return "", "", false
	}
	rest = line[n+1:]
	for rest != "" && isSpace(rest[0]) {
		rest = rest[1:]
	}
	return line[:n], rest, len(rest) < len(line)-n-1
}

// leadingDigits is the length of the \d* s starts with.
func leadingDigits(s string) int {
	n := 0
	for n < len(s) && '0' <= s[n] && s[n] <= '9' {
		n++
	}
	return n
}

// isSpace is the class \s of the two expressions above: [\t\n\f\r ].
func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\f' || c == '\r' }

type inputSpec struct {
	kind    StreamKind
	opID    int    // >0 when the input is an operator
	objName string // non-empty when the input is a base object
	rows    float64
	columns []string
}

type opSpec struct {
	op     *Operator
	inputs []inputSpec
	line   int
}

type section uint8

const (
	secHeader section = iota
	secStatement
	secAccessPlan
	secDetails
	secObjects
	secDone
)

type planParser struct {
	plan    *Plan
	specs   []*opSpec
	cur     *opSpec    // operator block being read
	curIn   *inputSpec // input stream being read
	curObj  *BaseObject
	sect    section
	subSect string // "", "arguments", "predicates", "streams"
	stmt    []string
	lineNo  int
}

func (pp *planParser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("qep: line %d: %s", pp.lineNo, fmt.Sprintf(format, args...))
}

func (pp *planParser) run(text string) error {
	for rest, more := text, true; more; {
		var raw string
		raw, rest, more = strings.Cut(rest, "\n")
		pp.lineNo++
		if err := pp.line(strings.TrimSpace(raw)); err != nil {
			return err
		}
	}
	pp.plan.Statement = strings.Join(pp.stmt, "\n")
	return pp.link()
}

func (pp *planParser) line(line string) error {
	// Section switches are recognized anywhere.
	switch line {
	case "Access Plan:":
		pp.sect = secAccessPlan
		return nil
	case "Plan Details:":
		pp.sect = secDetails
		return nil
	case "Base Objects:":
		pp.sect = secObjects
		pp.cur, pp.curIn = nil, nil
		return nil
	case "End of Explain":
		pp.sect = secDone
		return nil
	}
	if line == "" || strings.HasPrefix(line, "---") {
		return nil
	}

	switch pp.sect {
	case secHeader:
		if v, ok := cutKey(line, "Statement ID"); ok {
			pp.plan.ID = v
			return nil
		}
		if line == "Statement:" {
			pp.sect = secStatement
			return nil
		}
		return nil // banner and unknown header lines
	case secStatement:
		pp.stmt = append(pp.stmt, line)
		return nil
	case secAccessPlan:
		if v, ok := cutKey(line, "Total Cost"); ok {
			f, err := parseNum(v)
			if err != nil {
				return pp.errf("bad Total Cost %q", v)
			}
			pp.plan.TotalCost = f
		}
		return nil
	case secDetails:
		return pp.detailsLine(line)
	case secObjects:
		return pp.objectLine(line)
	default:
		return nil
	}
}

func (pp *planParser) detailsLine(line string) error {
	if number, modifier, typ, ok := operatorHeader(line); ok {
		id, err := strconv.Atoi(number)
		if err != nil || id <= 0 {
			return pp.errf("bad operator id %q", number)
		}
		op := &Operator{ID: id, Type: typ} // Args is made by the first argument line
		switch modifier {
		case ">":
			op.JoinMod = LeftOuterJoin
		case "<":
			op.JoinMod = RightOuterJoin
		case "^":
			op.JoinMod = EarlyOutJoin
		}
		pp.cur = &opSpec{op: op, line: pp.lineNo}
		pp.curIn = nil
		pp.subSect = ""
		pp.specs = append(pp.specs, pp.cur)
		return nil
	}
	if pp.cur == nil {
		return pp.errf("content before first operator block: %q", line)
	}

	switch line {
	case "Arguments:":
		pp.subSect = "arguments"
		pp.curIn = nil
		return nil
	case "Predicates:":
		pp.subSect = "predicates"
		pp.curIn = nil
		return nil
	case "Input Streams:":
		pp.subSect = "streams"
		pp.curIn = nil
		return nil
	}

	// Join modifier descriptions appear on their own line.
	switch line {
	case "Left Outer Join":
		pp.cur.op.JoinMod = LeftOuterJoin
		return nil
	case "Right Outer Join":
		pp.cur.op.JoinMod = RightOuterJoin
		return nil
	case "Early Out Join":
		pp.cur.op.JoinMod = EarlyOutJoin
		return nil
	}

	if pp.subSect == "streams" {
		if operator, object, ok := streamHeader(line); ok {
			in := inputSpec{objName: object}
			if operator != "" {
				id, err := strconv.Atoi(operator)
				if err != nil || id <= 0 { // #0 would read as "no operator": an input from the object ""
					return pp.errf("bad input operator id %q", operator)
				}
				in.opID = id
			} else if !declarable(object) {
				return pp.errf("object name %q cannot be declared in a Base Objects section", object)
			}
			pp.cur.inputs = append(pp.cur.inputs, in)
			pp.curIn = &pp.cur.inputs[len(pp.cur.inputs)-1]
			return nil
		}
		if pp.curIn == nil {
			return nil
		}
		switch key, v := keyValue(line); key {
		case "Stream Type":
			kind, err := ParseStreamKind(v)
			if err != nil {
				return pp.errf("%v", err)
			}
			pp.curIn.kind = kind
		case "Estimated Rows":
			f, err := parseNum(v)
			if err != nil {
				return pp.errf("bad Estimated Rows %q", v)
			}
			pp.curIn.rows = f
		case "Columns":
			pp.curIn.columns = parseColumns(v)
		}
		return nil
	}

	if pp.subSect == "predicates" {
		pp.cur.op.Predicates = append(pp.cur.op.Predicates, line)
		return nil
	}
	if pp.subSect == "arguments" {
		if k, v, ok := strings.Cut(line, ":"); ok {
			key, value := strings.TrimSpace(k), strings.TrimSpace(v)
			// Write prints `key: value`; a key kept apart from its ':' may
			// then read as a header.
			if len(key) < len(k) && isHeader(strings.TrimSpace(key+": "+value)) {
				return pp.errf("argument %q reads as a header without the space before ':'", line)
			}
			if pp.cur.op.Args == nil {
				pp.cur.op.Args = make(map[string]string)
			}
			pp.cur.op.Args[key] = value
		}
		return nil
	}

	// Operator properties; unknown property lines are tolerated.
	var dst *float64
	key, v := keyValue(line)
	switch key {
	case "Cumulative Total Cost":
		dst = &pp.cur.op.TotalCost
	case "Cumulative CPU Cost":
		dst = &pp.cur.op.CPUCost
	case "Cumulative I/O Cost":
		dst = &pp.cur.op.IOCost
	case "Cumulative First Row Cost":
		dst = &pp.cur.op.FirstRow
	case "Estimated Bufferpool Buffers":
		dst = &pp.cur.op.Buffers
	case "Estimated Cardinality":
		dst = &pp.cur.op.Cardinality
	default:
		return nil
	}
	f, err := parseNum(v)
	if err != nil {
		return pp.errf("bad %s %q", key, v)
	}
	*dst = f
	return nil
}

func (pp *planParser) objectLine(line string) error {
	if v, ok := cutKey(line, "Type"); ok && pp.curObj != nil {
		pp.curObj.Type = v
		return nil
	}
	if v, ok := cutKey(line, "Cardinality"); ok && pp.curObj != nil {
		f, err := parseNum(v)
		if err != nil {
			return pp.errf("bad object cardinality %q", v)
		}
		pp.curObj.Cardinality = f
		return nil
	}
	if v, ok := cutKey(line, "Columns"); ok && pp.curObj != nil {
		pp.curObj.Columns = parseColumns(v)
		return nil
	}
	// Otherwise the line names a new object.
	if !declarable(line) {
		return nil
	}
	pp.curObj = pp.plan.AddObject(&BaseObject{Name: line, Type: "TABLE"})
	return nil
}

// declarable reports whether a Base Objects section can declare an object of
// this name: a line that reads back as the name, not as a key, an underline
// or a shorter name.
func declarable(name string) bool {
	return name != "" && !strings.Contains(name, ":") && !strings.HasPrefix(name, "---") && strings.TrimSpace(name) == name
}

// isHeader reports whether a line of Plan Details opens a section, a
// subsection or an operator block.
func isHeader(line string) bool {
	switch line {
	case "Access Plan:", "Plan Details:", "Base Objects:", "Arguments:", "Predicates:", "Input Streams:":
		return true
	}
	_, _, _, ok := operatorHeader(line)
	return ok
}

// link resolves the collected operator specs into the plan tree.
func (pp *planParser) link() error {
	if len(pp.specs) == 0 {
		return fmt.Errorf("qep: no Plan Details section or no operators found")
	}
	// AddOperator keeps the plan's operators in ID order by inserting, which is
	// an append for ascending IDs and a copy of the tail otherwise: a file that
	// lists its blocks in any other order is sorted first, so that no input
	// makes registering n operators cost n².
	byID := pp.specs
	if ascending := func(a, b *opSpec) int { return cmp.Compare(a.op.ID, b.op.ID) }; !slices.IsSortedFunc(byID, ascending) {
		byID = slices.Clone(byID)
		slices.SortStableFunc(byID, ascending)
	}
	for _, spec := range byID {
		if err := pp.plan.AddOperator(spec.op); err != nil {
			return err
		}
	}
	for _, spec := range pp.specs {
		for _, in := range spec.inputs {
			if in.opID > 0 {
				child := pp.plan.Op(in.opID)
				if child == nil {
					return fmt.Errorf("qep: operator %d references unknown input operator #%d", spec.op.ID, in.opID)
				}
				if in.opID == spec.op.ID {
					return fmt.Errorf("qep: operator %d consumes itself", spec.op.ID)
				}
				// Multiple consumers are legal: a shared common subexpression
				// (TEMP) makes the plan a DAG.
				pp.plan.Link(spec.op, in.kind, child, nil, in.rows, in.columns)
				continue
			}
			obj, ok := pp.plan.Objects[in.objName]
			if !ok {
				// Objects may be referenced before (or without) a Base
				// Objects section; register a stub.
				obj = pp.plan.AddObject(&BaseObject{Name: in.objName, Type: "TABLE", Cardinality: in.rows})
			}
			pp.plan.Link(spec.op, in.kind, nil, obj, in.rows, in.columns)
		}
	}
	return pp.plan.Resolve()
}

// keyValue splits `key: value` (and `key : value`) at the first ':' into the
// trimmed key and value: cutKey for a line that is then looked up among
// several keys. A line without a ':' has no key.
func keyValue(line string) (key, value string) {
	k, v, ok := strings.Cut(line, ":")
	if !ok {
		return "", ""
	}
	return strings.TrimSpace(k), strings.TrimSpace(v)
}

// cutKey matches `key: value` (and `key : value`), returning the trimmed
// value.
func cutKey(line, key string) (string, bool) {
	if !strings.HasPrefix(line, key) {
		return "", false
	}
	rest := strings.TrimSpace(line[len(key):])
	if !strings.HasPrefix(rest, ":") {
		return "", false
	}
	return strings.TrimSpace(rest[1:]), true
}

func parseNum(s string) (float64, error) {
	return strconv.ParseFloat(strings.TrimSpace(s), 64)
}

// parseColumns accepts both the stream form "+A+B+C" and the comma form
// "A,B,C". Either separator separates in either form, so no name holds one
// and the form Write picks reads back as the same list.
func parseColumns(s string) []string {
	if s = strings.TrimPrefix(s, "+"); s == "" {
		return nil
	}
	out := make([]string, 0, 1+strings.Count(s, "+")+strings.Count(s, ","))
	for start, i := 0, 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '+' || s[i] == ',' {
			if name := strings.TrimSpace(s[start:i]); name != "" {
				out = append(out, name)
			}
			start = i + 1
		}
	}
	return out
}
