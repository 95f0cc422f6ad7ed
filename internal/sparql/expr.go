package sparql

import (
	"errors"
	"fmt"
	"math"
	"regexp"
	"strings"

	"optimatch/internal/rdf"
)

// Expression is a SPARQL expression evaluated against one solution binding.
type Expression interface {
	// Eval returns the expression value. The error errUnbound (or any other
	// error) makes an enclosing FILTER evaluate to false, per the SPARQL
	// error-as-false semantics.
	Eval(b bindingView) (rdf.Term, error)
}

// bindingView resolves variable names to terms during expression evaluation.
type bindingView interface {
	lookupVar(name string) (rdf.Term, bool)
}

// errUnbound is returned when an expression references an unbound variable.
var errUnbound = errors.New("unbound variable")

// errType is returned on datatype mismatches (e.g. numeric op on an IRI).
var errType = errors.New("type error")

// VarExpr references a variable.
type VarExpr struct{ Name string }

// LitExpr wraps a constant term.
type LitExpr struct{ Term rdf.Term }

// NotExpr is logical negation.
type NotExpr struct{ Inner Expression }

// AndExpr is logical conjunction with SPARQL three-valued error handling.
type AndExpr struct{ L, R Expression }

// OrExpr is logical disjunction with SPARQL three-valued error handling.
type OrExpr struct{ L, R Expression }

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	OpEq CmpOp = iota
	OpNeq
	OpLt
	OpGt
	OpLe
	OpGe
)

// CmpExpr compares two values; numbers compare numerically even across
// lexical renderings (decimal vs exponent form).
type CmpExpr struct {
	Op   CmpOp
	L, R Expression
}

// ArithExpr is +, -, * or / over numeric values.
type ArithExpr struct {
	Op   byte
	L, R Expression
}

// NegExpr is unary minus.
type NegExpr struct{ Inner Expression }

// CallExpr is a builtin function call: BOUND, REGEX, STR, ...
type CallExpr struct {
	Name string // uppercase
	Args []Expression
}

// Eval implements Expression.
func (e VarExpr) Eval(b bindingView) (rdf.Term, error) {
	t, ok := b.lookupVar(e.Name)
	if !ok {
		return rdf.Term{}, fmt.Errorf("%w: ?%s", errUnbound, e.Name)
	}
	return t, nil
}

// Eval implements Expression.
func (e LitExpr) Eval(bindingView) (rdf.Term, error) { return e.Term, nil }

// Eval implements Expression.
func (e NotExpr) Eval(b bindingView) (rdf.Term, error) {
	v, err := ebv(e.Inner, b)
	if err != nil {
		return rdf.Term{}, err
	}
	return rdf.Bool(!v), nil
}

// Eval implements Expression. SPARQL logical-and: an error on one side still
// yields false if the other side is false.
func (e AndExpr) Eval(b bindingView) (rdf.Term, error) {
	lv, lerr := ebv(e.L, b)
	rv, rerr := ebv(e.R, b)
	switch {
	case lerr == nil && rerr == nil:
		return rdf.Bool(lv && rv), nil
	case lerr == nil && !lv:
		return rdf.Bool(false), nil
	case rerr == nil && !rv:
		return rdf.Bool(false), nil
	case lerr != nil:
		return rdf.Term{}, lerr
	default:
		return rdf.Term{}, rerr
	}
}

// Eval implements Expression. SPARQL logical-or: an error on one side still
// yields true if the other side is true.
func (e OrExpr) Eval(b bindingView) (rdf.Term, error) {
	lv, lerr := ebv(e.L, b)
	rv, rerr := ebv(e.R, b)
	switch {
	case lerr == nil && rerr == nil:
		return rdf.Bool(lv || rv), nil
	case lerr == nil && lv:
		return rdf.Bool(true), nil
	case rerr == nil && rv:
		return rdf.Bool(true), nil
	case lerr != nil:
		return rdf.Term{}, lerr
	default:
		return rdf.Term{}, rerr
	}
}

// Eval implements Expression.
func (e CmpExpr) Eval(b bindingView) (rdf.Term, error) {
	l, err := e.L.Eval(b)
	if err != nil {
		return rdf.Term{}, err
	}
	r, err := e.R.Eval(b)
	if err != nil {
		return rdf.Term{}, err
	}
	// Numeric comparison when both sides parse as numbers.
	if lf, ok := l.Float(); ok {
		if rf, ok2 := r.Float(); ok2 {
			return rdf.Bool(cmpFloat(e.Op, lf, rf)), nil
		}
	}
	switch e.Op {
	case OpEq:
		return rdf.Bool(termValueEqual(l, r)), nil
	case OpNeq:
		return rdf.Bool(!termValueEqual(l, r)), nil
	default:
		if l.Kind == rdf.LiteralKind && r.Kind == rdf.LiteralKind {
			c := strings.Compare(l.Value, r.Value)
			switch e.Op {
			case OpLt:
				return rdf.Bool(c < 0), nil
			case OpGt:
				return rdf.Bool(c > 0), nil
			case OpLe:
				return rdf.Bool(c <= 0), nil
			case OpGe:
				return rdf.Bool(c >= 0), nil
			}
		}
		return rdf.Term{}, fmt.Errorf("%w: ordering comparison of %s and %s", errType, l, r)
	}
}

func cmpFloat(op CmpOp, l, r float64) bool {
	switch op {
	case OpEq:
		return l == r
	case OpNeq:
		return l != r
	case OpLt:
		return l < r
	case OpGt:
		return l > r
	case OpLe:
		return l <= r
	case OpGe:
		return l >= r
	}
	return false
}

// termValueEqual compares two terms by value: identical terms are equal, and
// numeric literals additionally compare by numeric value.
func termValueEqual(l, r rdf.Term) bool {
	if l == r {
		return true
	}
	if l.Kind == rdf.LiteralKind && r.Kind == rdf.LiteralKind {
		if lf, ok := l.Float(); ok {
			if rf, ok2 := r.Float(); ok2 {
				return lf == rf
			}
		}
		// Plain vs xsd:string are the same value space.
		if normDT(l.Datatype) == normDT(r.Datatype) {
			return l.Value == r.Value
		}
	}
	return false
}

func normDT(dt string) string {
	if dt == rdf.XSDString {
		return ""
	}
	return dt
}

// Eval implements Expression.
func (e ArithExpr) Eval(b bindingView) (rdf.Term, error) {
	l, err := evalNumeric(e.L, b)
	if err != nil {
		return rdf.Term{}, err
	}
	r, err := evalNumeric(e.R, b)
	if err != nil {
		return rdf.Term{}, err
	}
	switch e.Op {
	case '+':
		return rdf.Float(l + r), nil
	case '-':
		return rdf.Float(l - r), nil
	case '*':
		return rdf.Float(l * r), nil
	case '/':
		if r == 0 {
			return rdf.Term{}, fmt.Errorf("%w: division by zero", errType)
		}
		return rdf.Float(l / r), nil
	}
	return rdf.Term{}, fmt.Errorf("%w: unknown arithmetic op %q", errType, e.Op)
}

// Eval implements Expression.
func (e NegExpr) Eval(b bindingView) (rdf.Term, error) {
	v, err := evalNumeric(e.Inner, b)
	if err != nil {
		return rdf.Term{}, err
	}
	return rdf.Float(-v), nil
}

func evalNumeric(e Expression, b bindingView) (float64, error) {
	t, err := e.Eval(b)
	if err != nil {
		return 0, err
	}
	f, ok := t.Float()
	if !ok {
		return 0, fmt.Errorf("%w: %s is not numeric", errType, t)
	}
	return f, nil
}

// ebv computes the SPARQL effective boolean value of an expression.
func ebv(e Expression, b bindingView) (bool, error) {
	t, err := e.Eval(b)
	if err != nil {
		return false, err
	}
	return ebvTerm(t)
}

func ebvTerm(t rdf.Term) (bool, error) {
	if t.Kind != rdf.LiteralKind {
		return false, fmt.Errorf("%w: no boolean value for %s", errType, t)
	}
	if v, ok := t.Bool(); ok && (t.Datatype == rdf.XSDBoolean || t.Value == "true" || t.Value == "false") {
		return v, nil
	}
	if f, ok := t.Float(); ok {
		return f != 0 && !math.IsNaN(f), nil
	}
	return len(t.Value) > 0, nil
}

// Eval implements Expression for builtin calls.
func (e CallExpr) Eval(b bindingView) (rdf.Term, error) {
	switch e.Name {
	case "BOUND":
		v, ok := e.Args[0].(VarExpr)
		if !ok {
			return rdf.Term{}, fmt.Errorf("%w: BOUND requires a variable", errType)
		}
		_, bound := b.lookupVar(v.Name)
		return rdf.Bool(bound), nil
	case "COALESCE":
		for _, a := range e.Args {
			if t, err := a.Eval(b); err == nil {
				return t, nil
			}
		}
		return rdf.Term{}, fmt.Errorf("%w: COALESCE had no valid argument", errType)
	case "IF":
		cond, err := ebv(e.Args[0], b)
		if err != nil {
			return rdf.Term{}, err
		}
		if cond {
			return e.Args[1].Eval(b)
		}
		return e.Args[2].Eval(b)
	}

	// The remaining builtins evaluate all arguments eagerly.
	args := make([]rdf.Term, len(e.Args))
	for i, a := range e.Args {
		t, err := a.Eval(b)
		if err != nil {
			return rdf.Term{}, err
		}
		args[i] = t
	}
	switch e.Name {
	case "STR":
		return rdf.String(args[0].Value), nil
	case "STRLEN":
		return rdf.Int(int64(len([]rune(args[0].Value)))), nil
	case "UCASE":
		return rdf.String(strings.ToUpper(args[0].Value)), nil
	case "LCASE":
		return rdf.String(strings.ToLower(args[0].Value)), nil
	case "CONTAINS":
		return rdf.Bool(strings.Contains(args[0].Value, args[1].Value)), nil
	case "STRSTARTS":
		return rdf.Bool(strings.HasPrefix(args[0].Value, args[1].Value)), nil
	case "STRENDS":
		return rdf.Bool(strings.HasSuffix(args[0].Value, args[1].Value)), nil
	case "REGEX":
		pattern := args[1].Value
		if len(args) == 3 && strings.Contains(args[2].Value, "i") {
			pattern = "(?i)" + pattern
		}
		re, err := regexp.Compile(pattern)
		if err != nil {
			return rdf.Term{}, fmt.Errorf("%w: bad REGEX pattern: %v", errType, err)
		}
		return rdf.Bool(re.MatchString(args[0].Value)), nil
	case "DATATYPE":
		if args[0].Kind != rdf.LiteralKind {
			return rdf.Term{}, fmt.Errorf("%w: DATATYPE of non-literal", errType)
		}
		dt := args[0].Datatype
		if dt == "" {
			dt = rdf.XSDString
		}
		return rdf.IRI(dt), nil
	case "ISIRI", "ISURI":
		return rdf.Bool(args[0].IsIRI()), nil
	case "ISBLANK":
		return rdf.Bool(args[0].IsBlank()), nil
	case "ISLITERAL":
		return rdf.Bool(args[0].IsLiteral()), nil
	case "ISNUMERIC":
		return rdf.Bool(args[0].IsNumeric()), nil
	case "ABS":
		f, ok := args[0].Float()
		if !ok {
			return rdf.Term{}, fmt.Errorf("%w: ABS of non-numeric", errType)
		}
		return rdf.Float(math.Abs(f)), nil
	case "CEIL":
		f, ok := args[0].Float()
		if !ok {
			return rdf.Term{}, fmt.Errorf("%w: CEIL of non-numeric", errType)
		}
		return rdf.Float(math.Ceil(f)), nil
	case "FLOOR":
		f, ok := args[0].Float()
		if !ok {
			return rdf.Term{}, fmt.Errorf("%w: FLOOR of non-numeric", errType)
		}
		return rdf.Float(math.Floor(f)), nil
	case "ROUND":
		f, ok := args[0].Float()
		if !ok {
			return rdf.Term{}, fmt.Errorf("%w: ROUND of non-numeric", errType)
		}
		return rdf.Float(math.Round(f)), nil
	default:
		return rdf.Term{}, fmt.Errorf("%w: unknown function %s", errType, e.Name)
	}
}

// builtinArity maps builtin names to (min, max) argument counts; max of -1
// means variadic.
var builtinArity = map[string][2]int{
	"BOUND": {1, 1}, "STR": {1, 1}, "STRLEN": {1, 1}, "UCASE": {1, 1},
	"LCASE": {1, 1}, "CONTAINS": {2, 2}, "STRSTARTS": {2, 2},
	"STRENDS": {2, 2}, "REGEX": {2, 3}, "DATATYPE": {1, 1},
	"ISIRI": {1, 1}, "ISURI": {1, 1}, "ISBLANK": {1, 1},
	"ISLITERAL": {1, 1}, "ISNUMERIC": {1, 1}, "ABS": {1, 1},
	"CEIL": {1, 1}, "FLOOR": {1, 1}, "ROUND": {1, 1},
	"COALESCE": {1, -1}, "IF": {3, 3},
}

// exprVars returns every variable mentioned in e.
func exprVars(e Expression) []string {
	var out []string
	walkExpr(e, func(sub Expression) {
		if v, ok := sub.(VarExpr); ok {
			out = append(out, v.Name)
		}
	})
	return out
}
