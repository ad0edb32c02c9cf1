package tokenize

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Scan is the package's one line scanner. Reset splits a record into its
// retained lines and writes every line's observations, back to back, into
// a byte arena that is reused across calls: lowercased words with their
// @T/@V suffix, layout markers and word classes, in the order Tokenize
// documents. No observation string is built, so a caller that only needs
// dictionary ids (Dictionary.AppendIDs) parses a record without
// allocating per word. Tokenize is Reset plus turning the arena into
// strings.
//
// A Scan is not safe for concurrent use; hold one per goroutine or pool
// them. Lines, and the strings in them, alias the scanned text and stay
// valid after the next Reset only if copied out first.
type Scan struct {
	// Lines are the retained lines with Raw, Title, Value and HasSep
	// set. Obs is nil: the observations live in the arena.
	Lines []Line

	arena []byte // observation bytes, back to back
	ends  []int  // ends[k] is the arena offset where observation k ends
	first []int  // first[i] indexes line i's first observation; len(Lines)+1 entries
}

// Reset scans text under opts, replacing the previous contents of s.
//
// Per retained line the observations are, in order: SEP and NOVAL, SYM,
// the title words @T, the value words @V, the value's word classes, then
// NL, BOL and SHL/SHR, and LASTLN after the last line's. Options drop
// whole families (suffixes, layout markers, classes).
func (s *Scan) Reset(text string, opts Options) {
	s.Lines = s.Lines[:0]
	s.arena = s.arena[:0]
	s.ends = s.ends[:0]
	s.first = s.first[:0]
	prevIndent := -1
	for rest := text; ; {
		raw, next, blank := NextLine(rest)
		if raw == "" {
			break
		}
		rest = next
		s.line(raw, opts)
		if !opts.DisableLayout {
			if blank {
				s.mark(MarkNL)
			}
			if len(s.Lines) == 1 {
				s.mark(MarkBOL)
			}
			indent := leadingSpace(raw)
			if prevIndent >= 0 {
				if indent < prevIndent {
					s.mark(MarkSHL)
				} else if indent > prevIndent {
					s.mark(MarkSHR)
				}
			}
			prevIndent = indent
		}
	}
	if len(s.Lines) > 0 && !opts.DisableLayout {
		s.mark(MarkEOL)
	}
	s.first = append(s.first, len(s.ends))
}

// line appends one retained line and its separator, symbol, word and
// class observations.
func (s *Scan) line(raw string, opts Options) {
	trimmed := strings.TrimSpace(raw)
	title, value, hasSep := SplitTitleValue(trimmed)
	s.first = append(s.first, len(s.ends))
	s.Lines = append(s.Lines, Line{Raw: raw, Title: title, Value: value, HasSep: hasSep})
	if !opts.DisableLayout {
		if hasSep {
			s.mark(MarkSEP)
			if value == "" {
				s.mark(MarkNoV)
			}
		}
		if startsWithSymbol(trimmed) {
			s.mark(MarkSYM)
		}
	}
	titleSuffix, valueSuffix := "@T", "@V"
	if opts.DisableTitleValue {
		titleSuffix, valueSuffix = "", ""
	}
	s.words(title, titleSuffix)
	if hasSep {
		s.words(value, valueSuffix)
	} else {
		s.words(trimmed, valueSuffix)
	}
	if !opts.DisableClasses {
		s.classes(value)
	}
}

// mark appends one whole observation.
func (s *Scan) mark(obs string) {
	s.arena = append(s.arena, obs...)
	s.ends = append(s.ends, len(s.arena))
}

// obs returns observation k's bytes.
func (s *Scan) obs(k int) []byte {
	start := 0
	if k > 0 {
		start = s.ends[k-1]
	}
	return s.arena[start:s.ends[k]]
}

// words appends one observation per word of text: each maximal run of
// letters and digits, lowercased rune by rune (as strings.ToLower does),
// followed by suffix. Punctuation is discarded; words keep interior
// digits, so "2015" and "ns1" survive.
func (s *Scan) words(text, suffix string) {
	in := false
	for i := 0; i < len(text); {
		if c := text[i]; c < utf8.RuneSelf {
			i++
			if 'a' <= c && c <= 'z' || '0' <= c && c <= '9' || 'A' <= c && c <= 'Z' {
				s.arena = append(s.arena, lowerASCII(c))
				in = true
				continue
			}
		} else {
			r, w := utf8.DecodeRuneInString(text[i:])
			i += w
			if isWordRune(r) {
				s.arena = utf8.AppendRune(s.arena, unicode.ToLower(r))
				in = true
				continue
			}
		}
		if in {
			s.mark(suffix)
			in = false
		}
	}
	if in {
		s.mark(suffix)
	}
}

// classes appends the word-class observations of a line's value side,
// each class once, in the order its first field shows it. Fields are
// split on spaces, commas and semicolons and trimmed of brackets.
func (s *Scan) classes(value string) {
	from := len(s.ends)
	for len(value) > 0 {
		i := 0
		for i < len(value) && isFieldSep(value[i]) {
			i++
		}
		j := i
		for j < len(value) && !isFieldSep(value[j]) {
			j++
		}
		if i == j {
			return
		}
		f := trimBrackets(value[i:j])
		value = value[j:]
		switch {
		case isFiveDigit(f):
			s.class(Cls5Digit, from)
			s.class(ClsNum, from)
		case isAllDigits(f):
			s.class(ClsNum, from)
			if len(f) == 4 && (strings.HasPrefix(f, "19") || strings.HasPrefix(f, "20")) {
				s.class(ClsYear, from)
			}
		case looksEmail(f):
			s.class(ClsEmail, from)
		case looksURL(f):
			s.class(ClsURL, from)
		// Order matters among the digit-heavy classes: a date like
		// 2015-02-27 and a dotted quad both pass the loose phone test.
		case looksDate(f):
			s.class(ClsDate, from)
		case looksIP(f):
			s.class(ClsIP, from)
		case looksPhone(f):
			s.class(ClsPhone, from)
		case len(f) >= 2 && isAllUpperLetters(f):
			s.class(ClsCaps, from)
		}
	}
}

// class appends c unless an observation from index from on already is c.
func (s *Scan) class(c string, from int) {
	for k := from; k < len(s.ends); k++ {
		if string(s.obs(k)) == c {
			return
		}
	}
	s.mark(c)
}

func isFieldSep(c byte) bool { return c == ' ' || c == ',' || c == ';' }

// trimBrackets is strings.Trim(f, "()[]") as a byte loop from both ends.
func trimBrackets(f string) string {
	i, j := 0, len(f)
	for i < j && isBracket(f[i]) {
		i++
	}
	for j > i && isBracket(f[j-1]) {
		j--
	}
	return f[i:j]
}

func isBracket(c byte) bool { return c == '(' || c == ')' || c == '[' || c == ']' }
