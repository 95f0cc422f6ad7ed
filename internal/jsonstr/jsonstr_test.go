package jsonstr

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"optimatch/internal/qep"
	"optimatch/internal/workload"
)

// strs are the strings whose spelling differs from their bytes somewhere:
// every escape json.Marshal writes, invalid UTF-8 in each position, the two
// separators JSONP chokes on, and runs that grow the spelling six-fold.
var strs = []string{
	"", "Q1", "plain ascii ~ with space\x7f", "\"\\/\b\f\n\r\t", "\x00\x01\x1f", "<script>&amp;</script>",
	"\xff", "a\xc3(b", "\xed\xa0\x80", "\xf0\x9f\x98", "é ü 漢字 😀", "\u2028 \u2029 \u2027\u202a",
	"\ufffd", strings.Repeat("<", 100), strings.Repeat("\xff", 7), "Statement ID:\tQ1\n\tSELECT *\r\n",
}

func marshal(t testing.TB, s string) []byte {
	t.Helper()
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// checkAppend holds Append and Len, of s as a string and as bytes, behind a
// prefix, and AppendGrown into exactly the room it needs, to json.Marshal.
func checkAppend(t testing.TB, s string) {
	t.Helper()
	want := marshal(t, s)
	prefix := []byte("[1,")
	got := Append(bytes.Clone(prefix), s)
	if !bytes.Equal(got[len(prefix):], want) || !bytes.Equal(got[:len(prefix)], prefix) {
		t.Fatalf("Append(%q) = %q, json.Marshal = %q", s, got[len(prefix):], want)
	}
	if got := Append(nil, []byte(s)); !bytes.Equal(got, want) {
		t.Fatalf("Append([]byte(%q)) = %q, json.Marshal = %q", s, got, want)
	}
	if n, m := Len(s), Len([]byte(s)); n != len(want) || m != len(want) {
		t.Fatalf("Len(%q) = %d (as bytes %d), json.Marshal spells %d bytes", s, n, m, len(want))
	}
	exact := append(make([]byte, 0, len(prefix)+len(want)), prefix...)
	if got := AppendGrown(exact, s); !bytes.Equal(got, append(prefix, want...)) || cap(got) != cap(exact) {
		t.Fatalf("AppendGrown(%q) into exact room = %q, json.Marshal = %q", s, got[len(prefix):], want)
	}
}

// checkUnquote holds Unquote to json.Unmarshal into a *string on line: the
// same string where Unmarshal stores one, false where it stores none.
func checkUnquote(t testing.TB, line []byte) {
	t.Helper()
	var want *string
	wantOK := json.Unmarshal(line, &want) == nil && want != nil
	got, ok := Unquote(line)
	if ok != wantOK || ok && got != *want {
		w := "(none)"
		if wantOK {
			w = *want
		}
		t.Fatalf("Unquote(%q) = %q, %v; json.Unmarshal stores %q", line, got, ok, w)
	}
}

func TestAppendMatchesMarshal(t *testing.T) {
	for _, s := range strs {
		checkAppend(t, s)
	}
	for c := 0; c < 256; c++ {
		checkAppend(t, "a"+string(rune(c))+"b")
		checkAppend(t, "a"+string([]byte{byte(c)})+"b")
	}
}

func TestUnquoteMatchesUnmarshal(t *testing.T) {
	lines := []string{
		`""`, `"Q1"`, ` "a" `, "\t\"a\"\r", "\"a\"\r\n", `"\"\\\/\b\f\n\r\t"`, `"A\u00e9\u6F22"`,
		`"\ud83d\ude00"`, `"\uD83D\uDE00"`, `"\ud800"`, `"\ud800x"`, `"\udc00\ud800"`, `"\ud800\ud800\udc00"`,
		`"\ud800A"`, `"\ud800\n"`, `"\ud800\uZZZZ"`, `"\ud83d\ude0"`, `"\u12"`, `"\x"`, `"\'"`, `"\`,
		`"a`, `a"`, `"a" "b"`, `"a"x`, `"a",`, `null`, `true`, `1`, `[]`, `{"text":"a"}`, ``, ` `, `"`,
		"\"\xff\"", "\"a\xc3(b\"", "\"\xed\xa0\x80\"", "\"é ü 漢字 😀\"", "\"\u2028\"", "\"a\x00b\"",
		"\"a\tb\"", "\"a\x7fb\"", "\v\"a\"", "\"a\"\f", "\ufeff\"a\"",
	}
	for _, line := range lines {
		checkUnquote(t, []byte(line))
	}
	for _, s := range strs {
		checkUnquote(t, marshal(t, s))
		checkUnquote(t, []byte(`"`+s+`"`))
	}
}

// FuzzJSONString holds the codec to encoding/json on any bytes: Append and
// Len to json.Marshal of them as a string, Unquote to json.Unmarshal of them
// as a line and of Append's spelling of them, which reads back as the string
// with invalid UTF-8 replaced.
func FuzzJSONString(f *testing.F) {
	for _, s := range strs {
		f.Add([]byte(s))
		f.Add(marshal(f, s))
	}
	for _, line := range []string{`"\ud83d\ude00"`, `"\ud800"`, `"\/"`, "\"\xff\"", "\"a\"\r", `{"text":"a"}`, `null`} {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		s := string(b)
		checkAppend(t, s)
		checkUnquote(t, b)
		spelled := Append(nil, s)
		checkUnquote(t, spelled)
		if got, ok := Unquote(spelled); !ok || got != string([]rune(s)) {
			t.Fatalf("Unquote(Append(%q)) = %q, %v", s, got, ok)
		}
	})
}

// explainText is a generated plan's explain text (seed 1, 44 KB).
func explainText(t testing.TB) string {
	t.Helper()
	w, err := workload.Generate(workload.Config{Seed: 1, NumPlans: 1})
	if err != nil {
		t.Fatal(err)
	}
	return qep.Text(w.Plans[0])
}

func BenchmarkAppend(b *testing.B) {
	text := explainText(b)
	b.SetBytes(int64(len(text)))
	b.Run("jsonstr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = Append(nil, text)
		}
	})
	b.Run("json.Marshal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink, _ = json.Marshal(text)
		}
	})
}

func BenchmarkUnquote(b *testing.B) {
	line := Append(nil, explainText(b))
	b.SetBytes(int64(len(line)))
	b.Run("jsonstr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkString, _ = Unquote(line)
		}
	})
	b.Run("json.Unmarshal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var s *string
			_ = json.Unmarshal(line, &s)
			sinkString = *s
		}
	})
}

var (
	sink       []byte
	sinkString string
)
