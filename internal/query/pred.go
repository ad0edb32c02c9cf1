// Package query is the survey-scale query engine over the record store.
// Each segment gets one facts sidecar holding every record's survey
// facts (dictionary-coded) and frame location: a file next to a sealed
// segment, and an in-memory one, rebuilt after appends, for the active
// segment. Survey folds the matching rows straight from the sidecars,
// decoding no record; Scan tests the predicate on the sidecar and reads
// only the frames holding a match, or keeps the matches of the pass that
// builds the sidecar. A segment whose dictionary lacks the wanted
// registrar or country, or whose years miss the wanted ones, is pruned
// outright; any segment without a usable sidecar is scanned in full,
// across bounded parallel workers.
//
// Sidecars are derived, disposable artifacts: each one records the id and
// content fingerprint of the segment it was built from, so a stale,
// foreign, or corrupted sidecar is detected and ignored (or rebuilt) —
// never trusted. Every record Scan decodes is re-checked against the
// predicate before it is emitted, so a bad sidecar can cost time, never
// rows.
package query

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/survey"
)

// Pred is a conjunction of per-record conditions. The zero value matches
// every record.
type Pred struct {
	Registrar string // exact registrar match; "" = any
	Country   string // canonical country name; "" = any
	Year      int    // exact creation year (0 = unknown year); gated by HasYear
	HasYear   bool
	// YearTo turns the year condition into an inclusive range
	// [Year, YearTo] ("year=2012..2014"). 0 = exact-year semantics.
	// Only ever set alongside HasYear, with 1 <= Year <= YearTo.
	YearTo int
	Since  int // CreatedYear >= Since; 0 = any
}

// IsEmpty reports whether the predicate matches every record.
func (p Pred) IsEmpty() bool { return p == Pred{} }

// Match reports whether one record's facts satisfy the predicate. This
// is the ground truth: sidecar rows are matched with it, and every
// record Scan decodes is re-checked with it before emission.
func (p Pred) Match(f *survey.Facts) bool {
	if p.Registrar != "" && f.Registrar != p.Registrar {
		return false
	}
	if p.Country != "" && f.Country != p.Country {
		return false
	}
	if p.HasYear {
		if p.YearTo > 0 {
			if f.CreatedYear < p.Year || f.CreatedYear > p.YearTo {
				return false
			}
		} else if f.CreatedYear != p.Year {
			return false
		}
	}
	if p.Since > 0 && f.CreatedYear < p.Since {
		return false
	}
	return true
}

// String renders the predicate in ParsePred's syntax.
func (p Pred) String() string {
	var parts []string
	if p.Registrar != "" {
		parts = append(parts, "registrar="+p.Registrar)
	}
	if p.Country != "" {
		parts = append(parts, "country="+p.Country)
	}
	if p.HasYear {
		if p.YearTo > 0 {
			parts = append(parts, "year="+strconv.Itoa(p.Year)+".."+strconv.Itoa(p.YearTo))
		} else {
			parts = append(parts, "year="+strconv.Itoa(p.Year))
		}
	}
	if p.Since > 0 {
		parts = append(parts, "since="+strconv.Itoa(p.Since))
	}
	if len(parts) == 0 {
		return "(all)"
	}
	return strings.Join(parts, ",")
}

// ParsePred parses the -where syntax: comma-separated key=value pairs,
// keys being registrar, country, year, and since. year accepts either an
// exact year ("year=2014") or an inclusive range ("year=2012..2014").
// A comma inside a value
// — "registrar=GoDaddy.com, LLC" — is handled by joining any chunk
// without '=' onto the previous value. Country values are canonicalized
// ("US" → "United States"); values that don't canonicalize are kept
// verbatim so raw stored values stay queryable.
func ParsePred(s string) (Pred, error) {
	var p Pred
	s = strings.TrimSpace(s)
	if s == "" {
		return p, nil
	}
	chunks := strings.Split(s, ",")
	pairs := chunks[:0]
	for _, c := range chunks {
		if strings.Contains(c, "=") || len(pairs) == 0 {
			pairs = append(pairs, c)
		} else {
			pairs[len(pairs)-1] += "," + c
		}
	}
	for _, pair := range pairs {
		k, v, ok := strings.Cut(pair, "=")
		if !ok {
			return Pred{}, fmt.Errorf("query: %q is not key=value", strings.TrimSpace(pair))
		}
		k = strings.ToLower(strings.TrimSpace(k))
		v = strings.TrimSpace(v)
		if v == "" {
			return Pred{}, fmt.Errorf("query: empty value for %q", k)
		}
		switch k {
		case "registrar":
			if p.Registrar != "" {
				return Pred{}, fmt.Errorf("query: duplicate key %q", k)
			}
			p.Registrar = v
		case "country":
			if p.Country != "" {
				return Pred{}, fmt.Errorf("query: duplicate key %q", k)
			}
			if c := survey.CanonicalCountry(v); c != "" {
				v = c
			}
			p.Country = v
		case "year":
			if p.HasYear {
				return Pred{}, fmt.Errorf("query: duplicate key %q", k)
			}
			if lo, hi, ok := strings.Cut(v, ".."); ok {
				nlo, errLo := strconv.Atoi(strings.TrimSpace(lo))
				nhi, errHi := strconv.Atoi(strings.TrimSpace(hi))
				// Range years start at 1: year=0 means "no parseable
				// year", which a range cannot meaningfully include.
				if errLo != nil || errHi != nil || nlo < 1 || nhi > 9999 || nlo > nhi {
					return Pred{}, fmt.Errorf("query: bad year range %q", v)
				}
				p.Year, p.YearTo, p.HasYear = nlo, nhi, true
				break
			}
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 || n > 9999 {
				return Pred{}, fmt.Errorf("query: bad year %q", v)
			}
			p.Year, p.HasYear = n, true
		case "since":
			if p.Since > 0 {
				return Pred{}, fmt.Errorf("query: duplicate key %q", k)
			}
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 || n > 9999 {
				return Pred{}, fmt.Errorf("query: bad since year %q", v)
			}
			p.Since = n
		default:
			return Pred{}, fmt.Errorf("query: unknown key %q (want registrar, country, year, since)", k)
		}
	}
	return p, nil
}
