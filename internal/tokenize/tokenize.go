// Package tokenize turns raw WHOIS record text into the per-line observation
// sequences consumed by the CRF and baseline parsers.
//
// Following §3 of the paper, a record is chunked into its non-empty lines;
// each line becomes one token whose observations encode:
//
//   - every word, suffixed with "@T" when it appears to the left of the
//     first separator (the field *title*) and "@V" when it appears to the
//     right (the field *value*); lines without a separator are all "@V";
//   - layout markers: "NL" when the line is preceded by one or more blank
//     lines, "SHL"/"SHR" when the indentation shifts left or right relative
//     to the previous line, "SYM" when the line starts with a symbol such
//     as '#' or '%', and "SEP" when a separator is present;
//   - word classes such as "CLS:5DIGIT" (a five-digit number, predictive of
//     postcodes), "CLS:EMAIL", "CLS:PHONE", "CLS:YEAR", "CLS:DATE",
//     "CLS:URL" and "CLS:NUM".
//
// Lines that are empty or contain no alphanumeric characters receive no
// label in the paper's setup; Tokenize therefore drops them, while folding
// their layout signal (the NL marker) into the next retained line.
package tokenize

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Marker observation strings shared with the feature templates.
const (
	MarkNL  = "NL"     // preceded by one or more blank/contentless lines
	MarkSHL = "SHL"    // indentation shifted left vs. previous line
	MarkSHR = "SHR"    // indentation shifted right vs. previous line
	MarkSYM = "SYM"    // line begins with a non-alphanumeric symbol
	MarkSEP = "SEP"    // line contains a title/value separator
	MarkNoV = "NOVAL"  // separator present but value side empty
	MarkBOL = "BOL"    // first retained line of the record
	MarkEOL = "LASTLN" // last retained line of the record
)

// Word-class observation strings.
const (
	Cls5Digit = "CLS:5DIGIT"
	ClsEmail  = "CLS:EMAIL"
	ClsPhone  = "CLS:PHONE"
	ClsYear   = "CLS:YEAR"
	ClsDate   = "CLS:DATE"
	ClsURL    = "CLS:URL"
	ClsNum    = "CLS:NUM"
	ClsIP     = "CLS:IP"
	ClsCaps   = "CLS:ALLCAPS"
)

// Options selects which observation families Tokenize emits. The zero value
// enables everything; the Disable fields exist for the ablation benchmarks.
type Options struct {
	// DisableTitleValue drops the @T/@V suffix: every word is emitted bare.
	DisableTitleValue bool
	// DisableLayout drops NL/SHL/SHR/SYM/SEP/BOL markers.
	DisableLayout bool
	// DisableClasses drops CLS:* word-class observations.
	DisableClasses bool
}

// Line is one retained (labelable) line of a WHOIS record.
type Line struct {
	// Raw is the original text of the line, untrimmed.
	Raw string
	// Title is the trimmed text left of the separator ("" if none).
	Title string
	// Value is the trimmed text right of the separator, or the whole
	// trimmed line when there is no separator.
	Value string
	// HasSep reports whether a title/value separator was found.
	HasSep bool
	// Obs holds the observation strings for feature extraction, as
	// Tokenize builds them. It is nil on lines from Scan, which keeps the
	// observations as bytes.
	Obs []string
}

// Tokenize splits text into retained lines with observations attached.
// It is the Scan line scanner plus one materialization step: the
// observation bytes become strings (sharing one backing string per
// record) so training, the baselines and ParseBlocks/ParseFields can
// hold them. The hot parse path (core.Parser.Parse) stops at Scan and
// maps the bytes straight to dictionary ids instead.
func Tokenize(text string, opts Options) []Line {
	var s Scan
	s.Reset(text, opts)
	all := string(s.arena)
	obs := make([]string, len(s.ends))
	start := 0
	for k, end := range s.ends {
		obs[k] = all[start:end]
		start = end
	}
	for i := range s.Lines {
		lo, hi := s.first[i], s.first[i+1]
		s.Lines[i].Obs = obs[lo:hi:hi]
	}
	return s.Lines
}

// SplitTitleValue finds the first separator in a trimmed line and splits it
// into a title and value. Separators, per §3.3 and §4.2 of the paper, are
// colons, tabs, and ellipses (runs of two or more dots); a colon that is
// part of a URL scheme ("http://", "https://") is not a separator. The
// bracketed-title convention of Japanese registrars ("[Domain Name] X")
// is also recognized.
func SplitTitleValue(s string) (title, value string, ok bool) {
	if strings.HasPrefix(s, "[") {
		if end := strings.IndexByte(s, ']'); end > 1 {
			title = strings.TrimSpace(s[1:end])
			value = strings.TrimSpace(s[end+1:])
			if title != "" && value != "" {
				return title, value, true
			}
		}
	}
	idx, width := -1, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ':':
			if isSchemeColon(s, i) {
				continue
			}
			idx, width = i, 1
		case '\t':
			idx, width = i, 1
		case '.':
			j := i
			for j < len(s) && s[j] == '.' {
				j++
			}
			if j-i >= 2 {
				idx, width = i, j-i
			} else {
				continue
			}
		default:
			continue
		}
		break
	}
	if idx < 0 {
		return "", strings.TrimSpace(s), false
	}
	// A separator at position 0 means there is no title; treat the line as
	// value-only (common for "> ..." decorations already filtered by SYM).
	title = strings.TrimSpace(s[:idx])
	value = strings.TrimSpace(s[idx+width:])
	// Aligned formats pad with dots and then add a colon
	// ("Registrar......: eNom"); drop the residual colon from the value.
	if strings.HasPrefix(value, ":") {
		value = strings.TrimSpace(value[1:])
	}
	if title == "" {
		return "", strings.TrimSpace(s), false
	}
	return title, value, true
}

func isSchemeColon(s string, i int) bool {
	if i+2 < len(s) && s[i+1] == '/' && s[i+2] == '/' {
		return true
	}
	return false
}

// CountWords reports how many words the scanner would split text into
// (maximal runs of letters and digits), without building them — the
// form for callers (the header tests of the template matchers) that
// only need the count.
func CountWords(text string) int {
	n := 0
	in := false
	for _, r := range text {
		if isWordRune(r) {
			if !in {
				n++
				in = true
			}
		} else {
			in = false
		}
	}
	return n
}

// NextLine returns the first retained line of text and the text after
// it; blank reports that a dropped line came before the returned one.
// It is the one copy of the line-retention rule: lines end at '\n' and
// lose their trailing '\r's, and a line is retained when it has a letter
// or a digit. line is "" once text holds no retained line. Scan.Reset
// and the compiled template matcher both walk records with it.
//
// The work per line is in cutLine; NextLine stays small enough to be
// inlined into Scan.Reset's loop.
func NextLine(text string) (line, rest string, blank bool) {
	for rest = text; rest != ""; blank = true {
		if line, rest = cutLine(rest); line != "" {
			break
		}
	}
	return
}

// cutLine cuts text's first line off at '\n' and drops its trailing
// '\r's. line is "" when the line is not retained.
func cutLine(text string) (line, rest string) {
	line = text
	if i := strings.IndexByte(text, '\n'); i >= 0 {
		line, rest = text[:i], text[i+1:]
	}
	line = strings.TrimRight(line, "\r")
	if !hasAlnum(line) {
		return "", rest
	}
	return line, rest
}

// hasAlnum reports whether s contains at least one letter or digit.
func hasAlnum(s string) bool {
	for _, r := range s {
		if isWordRune(r) {
			return true
		}
	}
	return false
}

func leadingSpace(s string) int {
	n := 0
	for _, r := range s {
		switch r {
		case ' ':
			n++
		case '\t':
			n += 8
		default:
			return n
		}
	}
	return n
}

func startsWithSymbol(s string) bool {
	for _, r := range s {
		if unicode.IsSpace(r) {
			continue
		}
		switch r {
		case '#', '%', '*', '>', ';', '-', '[', '=':
			return true
		}
		return false
	}
	return false
}

// isWordRune reports whether r belongs to a word: a letter or a digit.
func isWordRune(r rune) bool { return unicode.IsLetter(r) || unicode.IsDigit(r) }

func isFiveDigit(s string) bool { return len(s) == 5 && isAllDigits(s) }

func isAllDigits(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

func isAllUpperLetters(s string) bool {
	for _, r := range s {
		if !unicode.IsUpper(r) {
			return false
		}
	}
	return len(s) > 0
}

func looksEmail(s string) bool {
	at := strings.IndexByte(s, '@')
	return at > 0 && at < len(s)-1 && strings.Contains(s[at:], ".")
}

// looksURL compares under ASCII case folding. That equals lowercasing s
// first even for non-ASCII s: the only non-ASCII runes that lowercase
// to ASCII are İ (to i) and the Kelvin sign (to k), and neither letter
// occurs in the prefixes.
func looksURL(s string) bool {
	return hasPrefixFold(s, "http://") || hasPrefixFold(s, "https://") || hasPrefixFold(s, "www.")
}

// hasPrefixFold is strings.HasPrefix under ASCII case folding; prefix
// must be lowercase.
func hasPrefixFold(s, prefix string) bool {
	if len(s) < len(prefix) {
		return false
	}
	for i := 0; i < len(prefix); i++ {
		if lowerASCII(s[i]) != prefix[i] {
			return false
		}
	}
	return true
}

func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// looksPhone accepts digit strings with separators and an optional leading
// '+', requiring at least 7 digits total.
func looksPhone(s string) bool {
	digits := 0
	for i, r := range s {
		switch {
		case r >= '0' && r <= '9':
			digits++
		case r == '+' && i == 0:
		case r == '-' || r == '.' || r == '(' || r == ')' || r == ' ':
		default:
			return false
		}
	}
	return digits >= 7
}

// looksDate accepts common WHOIS date shapes: 2015-02-27, 27-feb-2015,
// 2015/02/27, 02/27/2015, and ISO timestamps. Letters count
// case-insensitively, which for ASCII input (every real date) needs no
// lowercased copy. Other input is lowercased first, because İ and the
// Kelvin sign lowercase to the ASCII letters i and k.
func looksDate(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			s = strings.ToLower(s)
			break
		}
	}
	// The first t or T, by byte: both are ASCII, and no byte of a
	// multi-byte UTF-8 rune is.
	t := 0
	for t < len(s) && s[t] != 't' && s[t] != 'T' {
		t++
	}
	if t > 0 && t < len(s) && strings.Count(s[:t], "-") == 2 {
		s = s[:t] // 2015-02-27t12:00:00z
	}
	seps := 0
	digits := 0
	letters := 0
	for _, r := range s {
		switch {
		case r >= '0' && r <= '9':
			digits++
		case r == '-' || r == '/' || r == '.':
			seps++
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z':
			letters++
		default:
			return false
		}
	}
	if seps != 2 || digits < 4 {
		return false
	}
	return letters == 0 || letters == 3 // e.g. feb
}

// looksIP accepts dotted-quad IPv4 literals: four dot-separated runs of
// one to three digits.
func looksIP(s string) bool {
	parts, n := 1, 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '.':
			if n == 0 {
				return false
			}
			parts, n = parts+1, 0
		case c >= '0' && c <= '9':
			if n++; n > 3 {
				return false
			}
		default:
			return false
		}
	}
	return parts == 4 && n > 0
}
