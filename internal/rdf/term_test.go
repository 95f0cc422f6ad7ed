package rdf

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestTermConstructors(t *testing.T) {
	tests := []struct {
		name string
		term Term
		kind Kind
		str  string
	}{
		{"iri", IRI("http://optimatch/pop/5"), IRIKind, "<http://optimatch/pop/5>"},
		{"blank", Blank("b1"), BlankKind, "_:b1"},
		{"string", String("NLJOIN"), LiteralKind, `"NLJOIN"`},
		{"float", Float(15771), LiteralKind, `"15771"^^<` + XSDDouble + ">"},
		{"int", Int(42), LiteralKind, `"42"^^<` + XSDInteger + ">"},
		{"boolTrue", Bool(true), LiteralKind, `"true"^^<` + XSDBoolean + ">"},
		{"typed", TypedLiteral("4043.0", XSDDouble), LiteralKind, `"4043.0"^^<` + XSDDouble + ">"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.term.Kind != tt.kind {
				t.Errorf("kind = %v, want %v", tt.term.Kind, tt.kind)
			}
			if got := tt.term.String(); got != tt.str {
				t.Errorf("String() = %q, want %q", got, tt.str)
			}
		})
	}
}

func TestTermKindPredicates(t *testing.T) {
	if !IRI("x").IsIRI() || IRI("x").IsBlank() || IRI("x").IsLiteral() {
		t.Error("IRI kind predicates wrong")
	}
	if !Blank("b").IsBlank() || Blank("b").IsIRI() {
		t.Error("blank kind predicates wrong")
	}
	if !String("s").IsLiteral() || String("s").IsBlank() {
		t.Error("literal kind predicates wrong")
	}
	var zero Term
	if !zero.Zero() || IRI("x").Zero() {
		t.Error("Zero() wrong")
	}
}

func TestTermFloatParsesExplainFormats(t *testing.T) {
	// QEP files render numbers both in plain decimal and exponent form; both
	// must be comparable (this is exactly what defeats grep in the paper's
	// user study).
	tests := []struct {
		lex  string
		want float64
	}{
		{"4043.0", 4043},
		{"15771", 15771},
		{"1.0E+07", 1e7},
		{"1.311e-08", 1.311e-8},
		{"2.87997e+08", 2.87997e8},
		{"0.001", 0.001},
	}
	for _, tt := range tests {
		got, ok := String(tt.lex).Float()
		if !ok {
			t.Errorf("Float(%q) not numeric", tt.lex)
			continue
		}
		if math.Abs(got-tt.want) > math.Abs(tt.want)*1e-12 {
			t.Errorf("Float(%q) = %v, want %v", tt.lex, got, tt.want)
		}
	}
	if _, ok := String("NLJOIN").Float(); ok {
		t.Error("non-numeric literal reported numeric")
	}
	if _, ok := IRI("4043").Float(); ok {
		t.Error("IRI reported numeric")
	}
}

func TestTermBool(t *testing.T) {
	for _, lex := range []string{"true", "1"} {
		v, ok := String(lex).Bool()
		if !ok || !v {
			t.Errorf("Bool(%q) = %v, %v", lex, v, ok)
		}
	}
	for _, lex := range []string{"false", "0"} {
		v, ok := String(lex).Bool()
		if !ok || v {
			t.Errorf("Bool(%q) = %v, %v", lex, v, ok)
		}
	}
	if _, ok := String("maybe").Bool(); ok {
		t.Error("Bool accepted junk")
	}
}

func TestTermCompare(t *testing.T) {
	if IRI("a").Compare(Blank("a")) >= 0 {
		t.Error("IRI should sort before blank")
	}
	if Blank("a").Compare(String("a")) >= 0 {
		t.Error("blank should sort before literal")
	}
	if String("2").Compare(String("10")) >= 0 {
		t.Error("numeric literals should compare by value: 2 < 10")
	}
	if Float(10).Compare(TypedLiteral("1.0E+01", XSDDouble)) != 0 {
		t.Error("10 and 1.0E+01 should compare equal by value")
	}
	if String("abc").Compare(String("abd")) >= 0 {
		t.Error("string literal compare wrong")
	}
	if got := IRI("x").Compare(IRI("x")); got != 0 {
		t.Errorf("equal IRIs compare %d", got)
	}
}

func TestTermStringEscaping(t *testing.T) {
	term := String("line1\nline2\t\"quoted\"\\back")
	s := term.String()
	for _, want := range []string{`\n`, `\t`, `\"`, `\\`} {
		if !strings.Contains(s, want) {
			t.Errorf("escaped form %q missing %q", s, want)
		}
	}
}

// Float refuses what cannot start a number before it parses (numericStart):
// the verdict and the value must stay strconv.ParseFloat's, bit for bit, on
// everything strconv accepts — the special values in any case and length, hex
// floats, signs, padding — and on the near misses around them.
func TestTermFloatIsParseFloat(t *testing.T) {
	for _, lex := range []string{
		"NaN", "nan", "nAn", "+nan", "nanx", "na", "n",
		"inf", "Inf", "INF", "+Inf", "-inf", "infinity", "Infinity", "-INFINITY", "infinit", "infinityx", "in", "i",
		"0x10", "0x1p4", "0X1.8P1", "1_000", "0x_1p0",
		"0", "-0", "+5", ".5", "5.", "-.5e-3", "1e5", "1E+07", "1e999", "-1e999", "4e-400",
		" 12 ", "\t7\n", "1 2", "7 rows", "", " ", ".", "+", "-", "e5", "NLJOIN", "Index", "NIL", "N", "I",
	} {
		want, err := strconv.ParseFloat(strings.TrimSpace(lex), 64)
		got, ok := String(lex).Float()
		if ok != (err == nil) || (ok && math.Float64bits(got) != math.Float64bits(want)) {
			t.Errorf("Float(%q) = %v, %v; ParseFloat gives %v, %v", lex, got, ok, want, err)
		}
	}
	if _, ok := IRI("12").Float(); ok {
		t.Error("an IRI reported numeric")
	}
}

func TestFloatRoundTripProperty(t *testing.T) {
	f := func(v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		got, ok := Float(v).Float()
		return ok && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntRoundTripProperty(t *testing.T) {
	f := func(v int64) bool {
		got, ok := Int(v).Float()
		// float64 can't represent all int64 exactly; compare via the same
		// conversion.
		return ok && got == float64(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTripleString(t *testing.T) {
	tr := Triple{IRI("s"), IRI("p"), String("o")}
	if got, want := tr.String(), `<s> <p> "o" .`; got != want {
		t.Errorf("Triple.String() = %q, want %q", got, want)
	}
}
