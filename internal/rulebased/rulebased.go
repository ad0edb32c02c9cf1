// Package rulebased implements the paper's rule-based baseline parser
// (§2.3, §4.2). It follows the construction the paper describes: divide
// records into line-granularity tokens, map "title: value" separators to
// labels with exact-title rules, handle contextual blocks (a header such
// as "Registrant:" followed by bare value lines), and add special-case
// pattern rules.
//
// Rules of the first kind are *learned* from a labeled corpus, which makes
// the §5.1 "roll-back" methodology direct: building the parser from a
// subset of the labeled records retains exactly the rules that subset
// induces. The special-case pattern rules (symbol lines are boilerplate,
// a small set of universally common titles) model the rules the paper
// says "cannot be rolled back" and are always present.
package rulebased

import (
	"sort"
	"strings"

	"repro/internal/labels"
	"repro/internal/tokenize"
)

// Parser is a rule-based WHOIS parser.
type Parser struct {
	titleBlock map[string]labels.Block // normalized title -> block
	titleField map[string]labels.Field // normalized title -> registrant field
	headers    map[string]labels.Block // normalized header line -> context block
	rawBlock   map[string]labels.Block // exact boilerplate line -> block
	ctxTitle   map[string]labels.Block // "header\x00title" -> block
	opts       tokenize.Options
}

// genericTitles are the hand-written rules present regardless of training
// subset — the equivalent of a template parser's "generic templates".
var genericTitles = map[string]labels.Block{
	"domain name":     labels.Domain,
	"domain":          labels.Domain,
	"name server":     labels.Domain,
	"nameserver":      labels.Domain,
	"status":          labels.Domain,
	"domain status":   labels.Domain,
	"registrar":       labels.Registrar,
	"whois server":    labels.Registrar,
	"referral url":    labels.Registrar,
	"creation date":   labels.Date,
	"created":         labels.Date,
	"expiration date": labels.Date,
	"updated date":    labels.Date,
	"registrant name": labels.Registrant,
	"registrant":      labels.Registrant,
}

var genericFields = map[string]labels.Field{
	"registrant name":    labels.FieldName,
	"registrant email":   labels.FieldEmail,
	"registrant country": labels.FieldCountry,
}

// Build constructs a parser from labeled records: every titled line
// contributes an exact-title rule, every header line a context rule, and
// every boilerplate line an exact-text rule. Conflicts are resolved by
// majority, ties by first occurrence.
func Build(records []*labels.LabeledRecord, opts tokenize.Options) *Parser {
	type vote struct {
		counts map[labels.Block]int
		fields map[labels.Field]int
		order  []labels.Block
	}
	titleVotes := make(map[string]*vote)
	headerVotes := make(map[string]*vote)
	rawVotes := make(map[string]*vote)
	ctxVotes := make(map[string]*vote)

	addVote := func(m map[string]*vote, key string, b labels.Block, f labels.Field) {
		v := m[key]
		if v == nil {
			v = &vote{counts: make(map[labels.Block]int), fields: make(map[labels.Field]int)}
			m[key] = v
		}
		if v.counts[b] == 0 {
			v.order = append(v.order, b)
		}
		v.counts[b]++
		v.fields[f]++
	}

	for _, rec := range records {
		lines := tokenize.Tokenize(rec.Text, opts)
		if len(lines) != len(rec.Lines) {
			continue // malformed labeling; skip rather than misalign
		}
		ctxHeader := ""
		for i, ln := range lines {
			lab := rec.Lines[i]
			trimmed := strings.TrimSpace(ln.Raw)
			for _, o := range ln.Obs {
				if o == tokenize.MarkNL {
					ctxHeader = ""
				}
			}
			switch {
			case isHeaderLike(ln):
				ctxHeader = normalize(trimmed)
				addVote(headerVotes, ctxHeader, lab.Block, lab.Field)
			case ln.HasSep && ln.Value != "":
				addVote(titleVotes, normalize(ln.Title), lab.Block, lab.Field)
				if ctxHeader != "" {
					// Contextual rule: the same title ("Name") can mean
					// different blocks under different section headers.
					addVote(ctxVotes, ctxHeader+"\x00"+normalize(ln.Title), lab.Block, lab.Field)
				}
			default:
				if lab.Block == labels.Null {
					addVote(rawVotes, trimmed, lab.Block, lab.Field)
					ctxHeader = ""
				}
				// Bare value lines (names, streets) are instance data; no
				// rule can be learned from them — exactly the coverage gap
				// contextual rules must fill.
			}
		}
	}

	p := &Parser{
		titleBlock: make(map[string]labels.Block),
		titleField: make(map[string]labels.Field),
		headers:    make(map[string]labels.Block),
		rawBlock:   make(map[string]labels.Block),
		ctxTitle:   make(map[string]labels.Block),
		opts:       opts,
	}
	majority := func(v *vote) labels.Block {
		best, bestC := v.order[0], 0
		for _, b := range v.order {
			if c := v.counts[b]; c > bestC {
				best, bestC = b, c
			}
		}
		return best
	}
	majorityField := func(v *vote) labels.Field {
		best, bestC := labels.FieldOther, 0
		// Deterministic order over fields.
		keys := make([]int, 0, len(v.fields))
		for f := range v.fields {
			keys = append(keys, int(f))
		}
		sort.Ints(keys)
		for _, k := range keys {
			if c := v.fields[labels.Field(k)]; c > bestC {
				best, bestC = labels.Field(k), c
			}
		}
		return best
	}
	for t, v := range titleVotes {
		p.titleBlock[t] = majority(v)
		p.titleField[t] = majorityField(v)
	}
	for h, v := range headerVotes {
		p.headers[h] = majority(v)
	}
	for rtext, v := range rawVotes {
		p.rawBlock[rtext] = majority(v)
	}
	for k, v := range ctxVotes {
		p.ctxTitle[k] = majority(v)
	}
	return p
}

// normalize lowercases a title and collapses punctuation/whitespace so
// "Registrant  Name" and "[Registrant Name]" share a rule.
func normalize(s string) string {
	var b strings.Builder
	lastSpace := true
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
			lastSpace = false
		default:
			if !lastSpace {
				b.WriteByte(' ')
				lastSpace = true
			}
		}
	}
	return strings.TrimSpace(b.String())
}

// isHeaderLike reports whether a line looks like a block header: a titled
// line with an empty value ("Registrant:") or a short colon-terminated
// phrase ("Domain servers in listed order:").
func isHeaderLike(ln tokenize.Line) bool {
	trimmed := strings.TrimSpace(ln.Raw)
	if ln.HasSep && ln.Value == "" {
		return true
	}
	return strings.HasSuffix(trimmed, ":") && tokenize.CountWords(trimmed) <= 7
}

// ParseBlocks labels each retained line of text with a first-level block.
func (p *Parser) ParseBlocks(text string) ([]tokenize.Line, []labels.Block) {
	lines := tokenize.Tokenize(text, p.opts)
	out := make([]labels.Block, len(lines))

	context := labels.Null
	haveContext := false
	ctxHeader := ""

	for i, ln := range lines {
		trimmed := strings.TrimSpace(ln.Raw)
		// A blank gap ends a contextual block.
		for _, o := range ln.Obs {
			if o == tokenize.MarkNL {
				haveContext = false
				ctxHeader = ""
			}
		}

		switch {
		case startsWithSymbol(trimmed):
			out[i] = labels.Null
			haveContext = false
			ctxHeader = ""
		case isHeaderLike(ln):
			if b, ok := p.headers[normalize(trimmed)]; ok {
				out[i] = b
				context, haveContext = b, true
				ctxHeader = normalize(trimmed)
			} else if b, ok := p.titleBlock[normalize(ln.Title)]; ok && ln.HasSep {
				// A titled line with empty value whose title is known.
				out[i] = b
				context, haveContext = b, true
				ctxHeader = ""
			} else {
				out[i] = labels.Null
				haveContext = false
				ctxHeader = ""
			}
		case ln.HasSep:
			key := normalize(ln.Title)
			if b, ok := p.ctxTitle[ctxHeader+"\x00"+key]; ok && ctxHeader != "" {
				out[i] = b
			} else if b, ok := p.titleBlock[key]; ok {
				out[i] = b
			} else if b, ok := genericTitles[key]; ok {
				out[i] = b
			} else if haveContext {
				out[i] = context
			} else {
				out[i] = labels.Null
			}
		default:
			// Bare line: boilerplate if known verbatim, else context.
			if b, ok := p.rawBlock[trimmed]; ok {
				out[i] = b
				haveContext = false
			} else if haveContext {
				out[i] = context
			} else {
				out[i] = labels.Null
			}
		}
	}
	return lines, out
}

func startsWithSymbol(s string) bool {
	if s == "" {
		return false
	}
	switch s[0] {
	case '#', '%', '*', '>', ';', '=':
		return true
	}
	return false
}

// ParseFields assigns second-level labels to the lines marked Registrant.
// Titled lines use learned title→field rules; bare lines use the
// special-case value heuristics of §4.2 (an e-mail shape is an email, a
// phone shape a phone, a five-digit number a postcode, a known country
// name a country, a digit-leading line a street, and the first remaining
// line a name).
func (p *Parser) ParseFields(lines []tokenize.Line, blocks []labels.Block) []labels.Field {
	out := make([]labels.Field, len(lines))
	for i := range out {
		out[i] = labels.FieldOther
	}
	seenName := false
	for i, ln := range lines {
		if blocks[i] != labels.Registrant {
			continue
		}
		if ln.HasSep && ln.Value != "" {
			key := normalize(ln.Title)
			if f, ok := p.titleField[key]; ok {
				out[i] = f
			} else if f, ok := genericFields[key]; ok {
				out[i] = f
			} else {
				out[i] = guessField(ln.Value, &seenName)
			}
			continue
		}
		if isHeaderLike(ln) {
			out[i] = labels.FieldOther
			continue
		}
		out[i] = guessField(strings.TrimSpace(ln.Raw), &seenName)
	}
	return out
}

var countryNames = func() map[string]bool {
	m := map[string]bool{
		"united states": true, "china": true, "united kingdom": true,
		"germany": true, "france": true, "canada": true, "spain": true,
		"australia": true, "japan": true, "india": true, "turkey": true,
		"vietnam": true, "russia": true, "hong kong": true,
		"netherlands": true, "brazil": true, "italy": true,
		"south korea": true, "mexico": true,
	}
	return m
}()

func guessField(value string, seenName *bool) labels.Field {
	v := strings.TrimSpace(value)
	lv := strings.ToLower(v)
	switch {
	case strings.Contains(v, "@"):
		return labels.FieldEmail
	case looksPhoneValue(v):
		return labels.FieldPhone
	case countryNames[lv]:
		return labels.FieldCountry
	case isFiveDigits(v):
		return labels.FieldPostcode
	case len(v) > 0 && v[0] >= '0' && v[0] <= '9':
		return labels.FieldStreet
	case !*seenName:
		*seenName = true
		return labels.FieldName
	default:
		return labels.FieldOther
	}
}

func looksPhoneValue(s string) bool {
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

func isFiveDigits(s string) bool {
	if len(s) != 5 {
		return false
	}
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}
