package tokenize

import (
	"strings"
	"testing"
	"testing/quick"
)

func hasObs(ln Line, obs string) bool {
	for _, o := range ln.Obs {
		if o == obs {
			return true
		}
	}
	return false
}

func TestSplitTitleValueColon(t *testing.T) {
	title, value, ok := SplitTitleValue("Registrant Name: John Smith")
	if !ok || title != "Registrant Name" || value != "John Smith" {
		t.Errorf("got (%q, %q, %v)", title, value, ok)
	}
}

func TestSplitTitleValueTab(t *testing.T) {
	title, value, ok := SplitTitleValue("DOMAIN\texample.com")
	if !ok || title != "DOMAIN" || value != "example.com" {
		t.Errorf("got (%q, %q, %v)", title, value, ok)
	}
}

func TestSplitTitleValueDots(t *testing.T) {
	title, value, ok := SplitTitleValue("Domain Name..........: example.com")
	if !ok || title != "Domain Name" || value != "example.com" {
		t.Errorf("got (%q, %q, %v)", title, value, ok)
	}
}

func TestSplitTitleValueBrackets(t *testing.T) {
	title, value, ok := SplitTitleValue("[Domain Name] EXAMPLE.COM")
	if !ok || title != "Domain Name" || value != "EXAMPLE.COM" {
		t.Errorf("got (%q, %q, %v)", title, value, ok)
	}
}

func TestSplitTitleValueURLNotSeparator(t *testing.T) {
	// The colon in "http://" must not split the line; the first real
	// separator is the one after "URL".
	title, value, ok := SplitTitleValue("Registrar URL: http://www.example.com")
	if !ok || title != "Registrar URL" || value != "http://www.example.com" {
		t.Errorf("got (%q, %q, %v)", title, value, ok)
	}
	// A line that is only a URL has no separator at all.
	if _, _, ok := SplitTitleValue("http://www.example.com"); ok {
		t.Error("bare URL should not split")
	}
}

func TestSplitTitleValueNoSeparator(t *testing.T) {
	title, value, ok := SplitTitleValue("John Smith")
	if ok || title != "" || value != "John Smith" {
		t.Errorf("got (%q, %q, %v)", title, value, ok)
	}
}

func TestSplitTitleValueSingleDotNotSeparator(t *testing.T) {
	_, value, ok := SplitTitleValue("ns1.example.com")
	if ok || value != "ns1.example.com" {
		t.Errorf("single dots must not separate: (%q, %v)", value, ok)
	}
}

func TestSplitTitleValueLeadingColonResidue(t *testing.T) {
	title, value, ok := SplitTitleValue("Registrar..........: eNom, Inc.")
	if !ok || title != "Registrar" || value != "eNom, Inc." {
		t.Errorf("got (%q, %q, %v)", title, value, ok)
	}
}

// scanWords runs the scanner's word splitter alone and returns its words.
func scanWords(text string) []string {
	var s Scan
	s.words(text, "")
	out := make([]string, len(s.ends))
	for k := range out {
		out[k] = string(s.obs(k))
	}
	return out
}

func TestWords(t *testing.T) {
	const text = "Registrant Name: John-Smith 2015 İSTANBUL"
	got := scanWords(text)
	want := []string{"registrant", "name", "john", "smith", "2015", "istanbul"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("word %d: got %q, want %q", i, got[i], want[i])
		}
	}
	if n := CountWords(text); n != len(want) {
		t.Errorf("CountWords = %d, want %d", n, len(want))
	}
}

func TestWordsEmpty(t *testing.T) {
	if got := scanWords("  ...  "); len(got) != 0 {
		t.Errorf("got %v, want empty", got)
	}
	if n := CountWords("  ...  "); n != 0 {
		t.Errorf("CountWords = %d, want 0", n)
	}
}

func TestTokenizeDropsEmptyAndSymbolOnlyLines(t *testing.T) {
	text := "Domain Name: a.com\n\n   \n----------\nRegistrar: X"
	lines := Tokenize(text, Options{})
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %+v", len(lines), lines)
	}
	if !hasObs(lines[1], MarkNL) {
		t.Error("second line should carry NL after blank/symbol-only gap")
	}
}

func TestTokenizeTitleValueAnnotation(t *testing.T) {
	lines := Tokenize("Registrant Name: John", Options{})
	if len(lines) != 1 {
		t.Fatalf("got %d lines", len(lines))
	}
	if !hasObs(lines[0], "registrant@T") || !hasObs(lines[0], "name@T") {
		t.Errorf("missing @T observations: %v", lines[0].Obs)
	}
	if !hasObs(lines[0], "john@V") {
		t.Errorf("missing @V observation: %v", lines[0].Obs)
	}
	if !hasObs(lines[0], MarkSEP) {
		t.Errorf("missing SEP marker: %v", lines[0].Obs)
	}
}

func TestTokenizeNoSeparatorAllValue(t *testing.T) {
	lines := Tokenize("John Smith", Options{})
	if !hasObs(lines[0], "john@V") || !hasObs(lines[0], "smith@V") {
		t.Errorf("bare line words should be @V: %v", lines[0].Obs)
	}
	for _, o := range lines[0].Obs {
		if strings.HasSuffix(o, "@T") {
			t.Errorf("bare line should have no @T observations: %v", lines[0].Obs)
		}
	}
}

func TestTokenizeShiftMarkers(t *testing.T) {
	text := "Registrant:\n    John Smith\nDomain: x.com"
	lines := Tokenize(text, Options{})
	if len(lines) != 3 {
		t.Fatalf("got %d lines", len(lines))
	}
	if !hasObs(lines[1], MarkSHR) {
		t.Errorf("indented line should carry SHR: %v", lines[1].Obs)
	}
	if !hasObs(lines[2], MarkSHL) {
		t.Errorf("outdented line should carry SHL: %v", lines[2].Obs)
	}
}

func TestTokenizeSymbolMarker(t *testing.T) {
	lines := Tokenize("% NOTICE: legal text", Options{})
	if !hasObs(lines[0], MarkSYM) {
		t.Errorf("%%-leading line should carry SYM: %v", lines[0].Obs)
	}
}

func TestTokenizeBOLAndEOL(t *testing.T) {
	lines := Tokenize("first: 1\nsecond: 2", Options{})
	if !hasObs(lines[0], MarkBOL) {
		t.Error("first line should carry BOL")
	}
	if !hasObs(lines[1], MarkEOL) {
		t.Error("last line should carry EOL")
	}
}

func TestWordClasses(t *testing.T) {
	cases := []struct {
		line string
		want string
	}{
		{"Zip: 92122", Cls5Digit},
		{"Email: a@b.com", ClsEmail},
		{"Phone: +1.8585551212", ClsPhone},
		{"Year: 2015", ClsYear},
		{"Date: 2015-02-27", ClsDate},
		{"Date: 27-feb-2015", ClsDate},
		{"URL: http://x.com", ClsURL},
		{"Server IP: 192.168.1.1", ClsIP},
		{"Code: NSW", ClsCaps},
	}
	for _, c := range cases {
		lines := Tokenize(c.line, Options{})
		if !hasObs(lines[0], c.want) {
			t.Errorf("%q: missing %s in %v", c.line, c.want, lines[0].Obs)
		}
	}
}

func TestWordClassNegatives(t *testing.T) {
	lines := Tokenize("Name: John Smith", Options{})
	for _, cls := range []string{Cls5Digit, ClsEmail, ClsPhone, ClsDate, ClsURL} {
		if hasObs(lines[0], cls) {
			t.Errorf("plain name line should not carry %s", cls)
		}
	}
}

func TestOptionsDisableTitleValue(t *testing.T) {
	lines := Tokenize("Registrant Name: John", Options{DisableTitleValue: true})
	if !hasObs(lines[0], "registrant") || !hasObs(lines[0], "john") {
		t.Errorf("bare words missing: %v", lines[0].Obs)
	}
	for _, o := range lines[0].Obs {
		if strings.HasSuffix(o, "@T") || strings.HasSuffix(o, "@V") {
			t.Errorf("suffixed observation with DisableTitleValue: %q", o)
		}
	}
}

func TestOptionsDisableLayout(t *testing.T) {
	lines := Tokenize("a: 1\n\nb: 2", Options{DisableLayout: true})
	for _, ln := range lines {
		for _, o := range ln.Obs {
			switch o {
			case MarkNL, MarkSEP, MarkBOL, MarkEOL, MarkSHL, MarkSHR, MarkSYM:
				t.Errorf("layout marker %q with DisableLayout", o)
			}
		}
	}
}

func TestOptionsDisableClasses(t *testing.T) {
	lines := Tokenize("Zip: 92122", Options{DisableClasses: true})
	for _, o := range lines[0].Obs {
		if strings.HasPrefix(o, "CLS:") {
			t.Errorf("class observation %q with DisableClasses", o)
		}
	}
}

func TestTokenizeCRLF(t *testing.T) {
	lines := Tokenize("a: 1\r\nb: 2\r\n", Options{})
	if len(lines) != 2 {
		t.Fatalf("CRLF input: got %d lines, want 2", len(lines))
	}
	if strings.HasSuffix(lines[0].Value, "\r") {
		t.Error("value retains carriage return")
	}
}

// Property: the number of retained lines equals the number of input lines
// containing at least one alphanumeric character, regardless of content.
func TestTokenizeRetentionInvariant(t *testing.T) {
	f := func(raw []string) bool {
		text := strings.Join(raw, "\n")
		want := 0
		for _, line := range strings.Split(text, "\n") {
			line = strings.TrimRight(line, "\r")
			if hasAlnum(line) {
				want++
			}
		}
		return len(Tokenize(text, Options{})) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: every word observation ends in @T or @V (default options), and
// title words never appear after value words stopped.
func TestTokenizeObservationShapes(t *testing.T) {
	f := func(raw string) bool {
		for _, ln := range Tokenize(raw, Options{}) {
			for _, o := range ln.Obs {
				if strings.HasPrefix(o, "CLS:") || isMarker(o) {
					continue
				}
				if !strings.HasSuffix(o, "@T") && !strings.HasSuffix(o, "@V") {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func isMarker(o string) bool {
	switch o {
	case MarkNL, MarkSHL, MarkSHR, MarkSYM, MarkSEP, MarkNoV, MarkBOL, MarkEOL:
		return true
	}
	return false
}

func TestLooksDate(t *testing.T) {
	yes := []string{"2015-02-27", "27-feb-2015", "2015/02/27", "02/27/2015", "2015.01.02", "2015-02-27t10:00:00z"}
	for _, s := range yes {
		if !looksDate(s) {
			t.Errorf("looksDate(%q) = false, want true", s)
		}
	}
	no := []string{"hello", "1-2", "a-b-c", "192.168.1.1.5", "+1.858.555"}
	for _, s := range no {
		if looksDate(s) {
			t.Errorf("looksDate(%q) = true, want false", s)
		}
	}
}

func TestLooksPhone(t *testing.T) {
	yes := []string{"+1.8585551212", "+44-20-7946-0000", "(858) 555-1212"}
	for _, s := range yes {
		if !looksPhone(s) {
			t.Errorf("looksPhone(%q) = false", s)
		}
	}
	no := []string{"12345", "john", "+1.abc"}
	for _, s := range no {
		if looksPhone(s) {
			t.Errorf("looksPhone(%q) = true", s)
		}
	}
}

func TestSplitTitleValueSpacePaddedColon(t *testing.T) {
	// dots-2 style: title padded with spaces, then ": value".
	title, value, ok := SplitTitleValue("Registrant Name          : John")
	if !ok || title != "Registrant Name" || value != "John" {
		t.Errorf("got (%q, %q, %v)", title, value, ok)
	}
}

func TestTokenizeTabIndentCountsAsShift(t *testing.T) {
	lines := Tokenize("Header:\n\tvalue under tab", Options{})
	if len(lines) != 2 {
		t.Fatalf("got %d lines", len(lines))
	}
	if !hasObs(lines[1], MarkSHR) {
		t.Errorf("tab-indented line should carry SHR: %v", lines[1].Obs)
	}
}
