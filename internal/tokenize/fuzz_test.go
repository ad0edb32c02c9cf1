package tokenize

import (
	"strings"
	"testing"
	"unicode"
)

// FuzzTokenize asserts the tokenizer's core invariants on arbitrary
// input: it never panics, retains exactly the alphanumeric lines, and
// produces well-formed observations.
func FuzzTokenize(f *testing.F) {
	f.Add("Domain Name: example.com\n\nRegistrant Name: John")
	f.Add("[Registrant] X\n% comment\n\ttab start")
	f.Add("a......: b\nc\td\nhttp://x.com")
	f.Add("")
	f.Add("\r\n\r\n::::\n日本語: テスト")
	f.Fuzz(func(t *testing.T, text string) {
		lines := Tokenize(text, Options{})

		want := 0
		for _, raw := range strings.Split(text, "\n") {
			raw = strings.TrimRight(raw, "\r")
			if containsAlnum(raw) {
				want++
			}
		}
		if len(lines) != want {
			t.Fatalf("retained %d lines, want %d", len(lines), want)
		}
		for _, ln := range lines {
			for _, o := range ln.Obs {
				if o == "" {
					t.Fatal("empty observation")
				}
			}
			if ln.HasSep && ln.Title == "" {
				t.Fatalf("separator without title in %q", ln.Raw)
			}
		}
	})
}

func containsAlnum(s string) bool {
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			return true
		}
	}
	return false
}

// FuzzSplitTitleValue asserts the splitter never loses non-space content.
func FuzzSplitTitleValue(f *testing.F) {
	f.Add("Registrant Name: John Smith")
	f.Add("Domain...: x")
	f.Add("[Key] value")
	f.Add("::::")
	f.Fuzz(func(t *testing.T, s string) {
		title, value, ok := SplitTitleValue(s)
		if ok && title == "" {
			t.Fatalf("ok with empty title on %q", s)
		}
		if !ok && title != "" {
			t.Fatalf("not-ok but title %q on %q", title, s)
		}
		_ = value
	})
}

// allOptions enumerates the 8 combinations of the Options switches.
func allOptions() []Options {
	out := make([]Options, 0, 8)
	for m := 0; m < 8; m++ {
		out = append(out, Options{
			DisableTitleValue: m&1 != 0,
			DisableLayout:     m&2 != 0,
			DisableClasses:    m&4 != 0,
		})
	}
	return out
}

// FuzzScan is the exactness gate of the fused scanner: for arbitrary
// text under every Options combination, Scan's lines and per-line
// dictionary ids, and Tokenize's observations, must equal the reference
// tokenizer's (reference_test.go) followed by MapLine. The class
// predicates Scan rewrote are also held to their references on the raw
// input as one field. The checked-in corpus (testdata/fuzz/FuzzScan)
// covers CRLF, bracket titles, dotted separators, CJK, İ/K, ISO dates
// and leading blank lines (NL and BOL on one line).
func FuzzScan(f *testing.F) {
	f.Add("Domain Name: EXAMPLE.COM\r\n\r\nCreation Date: 2015-02-27T10:00:00Z")
	f.Add("[Registrant] Taro Yamada\n   Registrar......: eNom\n\tPhone: +1.8585551212")
	f.Add("")
	f.Fuzz(func(t *testing.T, text string) {
		for _, opts := range allOptions() {
			checkScan(t, text, opts)
		}
		if got, want := looksDate(text), refLooksDate(text); got != want {
			t.Fatalf("looksDate(%q) = %v, reference %v", text, got, want)
		}
		if got, want := looksURL(text), refLooksURL(text); got != want {
			t.Fatalf("looksURL(%q) = %v, reference %v", text, got, want)
		}
		if got, want := looksIP(text), refLooksIP(text); got != want {
			t.Fatalf("looksIP(%q) = %v, reference %v", text, got, want)
		}
	})
}
