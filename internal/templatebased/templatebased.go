// Package templatebased implements the paper's template-based baseline
// (§2.3): a parser built from one exact template per registrar, in the
// style of deft-whois, Ruby whois and WhoisParser. A record's registrar
// is either given (MatchRegistrar, as real template parsers take it from
// the thin record) or detected from its text (Match); if no template
// exists the parse fails with ErrNoTemplate (the "crisp failure
// signal"), and if the record's lines deviate from the stored template —
// a renamed title, a reordered field, a new boilerplate sentence — the
// parse fails with ErrMismatch. That fragility to minor format change is
// the point the paper demonstrates with deft-whois's 94% template
// coverage but near-total failure under drift.
package templatebased

import (
	"errors"
	"strings"

	"repro/internal/tokenize"
)

// ErrNoTemplate reports that the record's registrar has no template.
var ErrNoTemplate = errors.New("templatebased: no template for registrar")

// ErrMismatch reports that a line did not match the registrar's template.
var ErrMismatch = errors.New("templatebased: record deviates from template")

// prefixOf derives the title+separator prefix from the raw line text —
// the key titled lines are stored and matched under. It is the exact
// rendered title plus separator, byte for byte, because real template
// parsers anchor regexes on the literal "Title: " text; even a separator
// change ("Title : ") breaks them (§2.3). Every return value is a
// substring of raw (or the already-materialized title), so key
// derivation on the hot matching path is allocation-free.
func prefixOf(raw, title, value string) string {
	end := len(raw)
	for end > 0 && (raw[end-1] == ' ' || raw[end-1] == '\t') {
		end--
	}
	raw = raw[:end]
	if value == "" {
		return raw
	}
	if i := strings.LastIndex(raw, value); i >= 0 {
		return raw[:i]
	}
	return title
}

// isHeader reports whether a retained line, given its trimmed text and
// split, is a section header: a title with no value, or a short line
// ending in a colon.
func isHeader(trimmed string, hasSep bool, value string) bool {
	if hasSep && value == "" {
		return true
	}
	return strings.HasSuffix(trimmed, ":") && tokenize.CountWords(trimmed) <= 7
}
