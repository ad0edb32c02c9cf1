package tokenize

import (
	"strings"
	"unicode"
)

// This file keeps the string-building tokenizer that Scan replaced, as
// the reference the differential tests (FuzzScan, the corpus test in
// scan_test.go) hold the scanner to. Only the functions Scan rewrote are
// copied; the helpers both share (SplitTitleValue, the layout and digit
// predicates) are called in place.

// refTokenize is the pre-scanner Tokenize.
func refTokenize(text string, opts Options) []Line {
	rawLines := strings.Split(text, "\n")
	out := make([]Line, 0, len(rawLines))
	pendingNL := false
	prevIndent := -1
	for _, raw := range rawLines {
		raw = strings.TrimRight(raw, "\r")
		if !hasAlnum(raw) {
			pendingNL = true
			continue
		}
		ln := refBuildLine(raw, opts)
		if !opts.DisableLayout {
			if pendingNL {
				ln.Obs = append(ln.Obs, MarkNL)
			}
			if len(out) == 0 {
				ln.Obs = append(ln.Obs, MarkBOL)
			}
			indent := leadingSpace(raw)
			if prevIndent >= 0 {
				if indent < prevIndent {
					ln.Obs = append(ln.Obs, MarkSHL)
				} else if indent > prevIndent {
					ln.Obs = append(ln.Obs, MarkSHR)
				}
			}
			prevIndent = indent
		}
		pendingNL = false
		out = append(out, ln)
	}
	if len(out) > 0 {
		last := &out[len(out)-1]
		if !opts.DisableLayout {
			last.Obs = append(last.Obs, MarkEOL)
		}
	}
	return out
}

func refBuildLine(raw string, opts Options) Line {
	trimmed := strings.TrimSpace(raw)
	title, value, hasSep := SplitTitleValue(trimmed)
	ln := Line{Raw: raw, Title: title, Value: value, HasSep: hasSep}
	ln.Obs = make([]string, 0, 16)

	if !opts.DisableLayout {
		if hasSep {
			ln.Obs = append(ln.Obs, MarkSEP)
			if value == "" {
				ln.Obs = append(ln.Obs, MarkNoV)
			}
		}
		if startsWithSymbol(trimmed) {
			ln.Obs = append(ln.Obs, MarkSYM)
		}
	}

	appendWords := func(text, suffix string) {
		for _, w := range refWords(text) {
			if opts.DisableTitleValue {
				ln.Obs = append(ln.Obs, w)
			} else {
				ln.Obs = append(ln.Obs, w+suffix)
			}
		}
	}
	appendWords(title, "@T")
	if hasSep {
		appendWords(value, "@V")
	} else {
		appendWords(trimmed, "@V")
	}

	if !opts.DisableClasses {
		ln.Obs = append(ln.Obs, refClasses(value)...)
	}
	return ln
}

// refWords is the pre-scanner word splitter.
func refWords(text string) []string {
	var out []string
	start := -1
	needLower := false
	flush := func(end int) {
		if start >= 0 {
			w := text[start:end]
			if needLower {
				w = strings.ToLower(w)
			}
			out = append(out, w)
			start = -1
			needLower = false
		}
	}
	for i, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
			if unicode.ToLower(r) != r {
				needLower = true
			}
		} else {
			flush(i)
		}
	}
	flush(len(text))
	return out
}

// refClasses is the pre-scanner word-class inspector.
func refClasses(value string) []string {
	var out []string
	add := func(c string) {
		for _, x := range out {
			if x == c {
				return
			}
		}
		out = append(out, c)
	}
	fields := strings.FieldsFunc(value, func(r rune) bool { return r == ' ' || r == ',' || r == ';' })
	for _, f := range fields {
		f = strings.Trim(f, "()[]")
		switch {
		case isFiveDigit(f):
			add(Cls5Digit)
			add(ClsNum)
		case isAllDigits(f):
			add(ClsNum)
			if len(f) == 4 && (strings.HasPrefix(f, "19") || strings.HasPrefix(f, "20")) {
				add(ClsYear)
			}
		case looksEmail(f):
			add(ClsEmail)
		case refLooksURL(f):
			add(ClsURL)
		case refLooksDate(f):
			add(ClsDate)
		case refLooksIP(f):
			add(ClsIP)
		case looksPhone(f):
			add(ClsPhone)
		case len(f) >= 2 && isAllUpperLetters(f):
			add(ClsCaps)
		}
	}
	return out
}

func refLooksURL(s string) bool {
	ls := strings.ToLower(s)
	return strings.HasPrefix(ls, "http://") || strings.HasPrefix(ls, "https://") || strings.HasPrefix(ls, "www.")
}

func refLooksDate(s string) bool {
	s = strings.ToLower(s)
	if t := strings.IndexByte(s, 't'); t > 0 && strings.Count(s[:t], "-") == 2 {
		s = s[:t]
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
		case r >= 'a' && r <= 'z':
			letters++
		default:
			return false
		}
	}
	if seps != 2 || digits < 4 {
		return false
	}
	return letters == 0 || letters == 3
}

func refLooksIP(s string) bool {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return false
	}
	for _, p := range parts {
		if !isAllDigits(p) || len(p) > 3 {
			return false
		}
	}
	return true
}
