// Package norm holds the field canonicalizers shared by the survey layer
// and the cross-protocol consistency engine. WHOIS and RDAP spell the
// same fact differently — "02-Jan-2006" vs RFC 3339 timestamps,
// "GoDaddy.com, LLC" vs "GODADDY.COM LLC", "US" vs "United States" — so
// any layer that compares or aggregates registration data needs one
// shared notion of "the same value". Every function here is total (never
// panics on arbitrary input) and idempotent (norm(norm(x)) == norm(x));
// the fuzz target in fuzz_test.go holds both properties.
package norm

import (
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode"

	"repro/internal/identity"
)

// DateLayouts covers every date format the registrar schemas emit, in
// the order ParseDate tries them. The first entry is the canonical
// layout DateKey emits, which keeps DateKey idempotent.
var DateLayouts = []string{
	"2006-01-02",
	"2006-01-02T15:04:05Z",
	"2006-01-02 15:04:05",
	"02-Jan-2006 15:04:05 UTC",
	"02-Jan-2006",
	"2006/01/02 15:04:05 (JST)",
	"2006/01/02",
	"02/01/2006",
	"02.01.2006",
	"2006.01.02",
	"Mon Jan 02 15:04:05 GMT 2006",
	"Mon Jan 02 2006",
	"Jan 02, 2006",
	"Jan 2, 2006",
	"January 2, 2006",
	"2 January 2006",
	"20060102",
	time.RFC3339,
}

// ParseDate parses a registration date string in any of the ecosystem's
// formats (WHOIS free text or RDAP RFC 3339). As a last resort it scans
// for a plausible 4-digit year, since a known year still buckets the
// record correctly in the survey's Figure 4 histograms.
func ParseDate(s string) (time.Time, bool) {
	s = strings.TrimSpace(s)
	if s == "" {
		return time.Time{}, false
	}
	for _, layout := range DateLayouts {
		if t, err := time.Parse(layout, s); err == nil {
			return t, true
		}
	}
	for i := 0; i+4 <= len(s); i++ {
		if y, err := strconv.Atoi(s[i : i+4]); err == nil && y >= 1982 && y <= 2030 {
			if (i == 0 || !isDigit(s[i-1])) && (i+4 == len(s) || !isDigit(s[i+4])) {
				return time.Date(y, 1, 1, 0, 0, 0, 0, time.UTC), true
			}
		}
	}
	return time.Time{}, false
}

func isDigit(b byte) bool { return b >= '0' && b <= '9' }

// DateKey folds a date string to its UTC calendar day ("2006-01-02"),
// the comparison key for cross-protocol date agreement: two spellings of
// the same day are equivalent even when one carries a time of day the
// other dropped. Unparseable input folds to "".
func DateKey(s string) string {
	t, ok := ParseDate(s)
	if !ok {
		return ""
	}
	return t.UTC().Format("2006-01-02")
}

// Registrar folds a registrar name for comparison: ASCII lowercase,
// punctuation to spaces, runs of whitespace collapsed. "GoDaddy.com,
// LLC" and "GODADDY.COM LLC" fold to the same key; genuinely different
// registrars stay apart because folding never deletes letters or digits.
func Registrar(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	space := true // swallow leading separators
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case 'A' <= c && c <= 'Z':
			b.WriteByte(c + 'a' - 'A')
			space = false
		case 'a' <= c && c <= 'z' || '0' <= c && c <= '9':
			b.WriteByte(c)
			space = false
		default:
			// Separator (punctuation, whitespace, or any non-ASCII byte):
			// emit at most one space between word runs.
			if !space {
				b.WriteByte(' ')
				space = true
			}
		}
	}
	return strings.TrimRight(b.String(), " ")
}

// Email folds an email address: trimmed and ASCII-lowercased. The local
// part is case-sensitive per RFC 5321, but no registrar ecosystem
// distinguishes case there, and "WHOIS Right?" compares emails
// case-insensitively for the same reason.
func Email(s string) string {
	return strings.ToLower(strings.TrimSpace(s))
}

// Host folds a hostname (nameserver, WHOIS server): trimmed,
// ASCII-lowercased, trailing dots removed (the DNS root label is
// presentation noise), along with any space they leave exposed, so a
// folded host folds to itself.
func Host(s string) string {
	s = strings.ToLower(strings.TrimSpace(s))
	return strings.TrimRightFunc(s, func(r rune) bool { return r == '.' || unicode.IsSpace(r) })
}

// Hosts folds a hostname list into a sorted, deduplicated set — the
// comparison key for nameserver agreement, where order is meaningless.
// Empty entries (a bare ".") are dropped.
func Hosts(in []string) []string {
	out := make([]string, 0, len(in))
	for _, h := range in {
		if f := Host(h); f != "" {
			out = append(out, f)
		}
	}
	sort.Strings(out)
	j := 0
	for i, h := range out {
		if i == 0 || h != out[j-1] {
			out[j] = h
			j++
		}
	}
	return out[:j]
}

// Status folds an EPP status value to its bare token: any trailing
// ICANN EPP URL is dropped (registrars append it after the token), then
// the rest is ASCII-lowercased with non-alphanumerics removed, so
// "clientTransferProhibited", "client transfer prohibited", and
// "clientTransferProhibited https://icann.org/epp#..." all fold to
// "clienttransferprohibited".
func Status(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.Index(strings.ToLower(s), " http"); i >= 0 {
		s = s[:i]
	}
	if i := strings.Index(s, "("); i >= 0 {
		s = s[:i]
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case 'A' <= c && c <= 'Z':
			b.WriteByte(c + 'a' - 'A')
		case 'a' <= c && c <= 'z' || '0' <= c && c <= '9':
			b.WriteByte(c)
		}
	}
	return b.String()
}

// Statuses folds a status list into a sorted, deduplicated set of bare
// tokens.
func Statuses(in []string) []string {
	out := make([]string, 0, len(in))
	for _, s := range in {
		if f := Status(s); f != "" {
			out = append(out, f)
		}
	}
	sort.Strings(out)
	j := 0
	for i, s := range out {
		if i == 0 || s != out[j-1] {
			out[j] = s
			j++
		}
	}
	return out[:j]
}

// countryCanon maps lower-cased codes and names to canonical names.
var countryCanon = func() map[string]string {
	m := make(map[string]string)
	for code, c := range identity.Countries() {
		m[strings.ToLower(code)] = c.Name
		m[strings.ToLower(c.Name)] = c.Name
	}
	// Common aliases.
	m["usa"] = "United States"
	m["united states of america"] = "United States"
	m["uk"] = "United Kingdom"
	m["great britain"] = "United Kingdom"
	m["korea"] = "South Korea"
	m["republic of korea"] = "South Korea"
	return m
}()

// Country normalizes a registrant country value ("US", "us", "United
// States") to a canonical name; unknown values map to "".
func Country(v string) string {
	return countryCanon[strings.ToLower(strings.TrimSpace(v))]
}

// CountryKey is the comparison key for country agreement: the canonical
// name when the value is recognized, otherwise the trimmed lowercase
// text — so two unknown-but-identical spellings still agree instead of
// both folding to "".
func CountryKey(v string) string {
	if c := Country(v); c != "" {
		return c
	}
	return strings.ToLower(strings.TrimSpace(v))
}
