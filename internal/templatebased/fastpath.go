// The compiled templates: Compile induces one exact template per
// registrar from labeled records and flattens it into match tables, plus
// a registrar *detection* index (exact "Registrar: <name>" lines seen in
// training). Match and MatchRegistrar label a record with substring
// operations only — no observation lists, no lattice. A hit costs a few
// map probes per line; a miss is a bare sentinel error. Match is tier L0
// of internal/tiered; MatchRegistrar is the §2.3 baseline.
package templatebased

import (
	"sort"
	"strings"
	"sync"

	"repro/internal/labels"
	"repro/internal/tokenize"
)

// rule is the compiled action for one known line prefix: the block label,
// and the registrant field label applied when the line carries a value.
type rule struct {
	block labels.Block
	field labels.Field
}

// compiledTemplate is one registrar's flattened match tables.
type compiledTemplate struct {
	registrar string                  // interned registrar key
	title     map[string]rule         // title+separator prefix -> labels
	raw       map[string]labels.Block // exact trimmed bare line -> block
	headers   map[string]labels.Block // exact trimmed header -> context block
}

// Compiled is a set of compiled templates plus the registrar detection
// index. It is immutable after Compile and safe for concurrent use.
type Compiled struct {
	templates map[string]*compiledTemplate
	// detect maps exact trimmed registrar-identity lines ("Registrar:
	// Foo, Inc.") to their template. Lines whose text appears under two
	// different registrars are ambiguous and removed.
	detect map[string]*compiledTemplate
	layout bool // whether blank-line NL markers reset header context
}

// Match is the result of a successful template match. Lines carry Raw,
// Title, Value and HasSep but no Obs (observations exist only for the
// CRF); Blocks and Fields align with Lines.
type Match struct {
	Registrar string
	Lines     []tokenize.Line
	Blocks    []labels.Block
	Fields    []labels.Field
	// Confidence is the fraction of retained lines matched by an exact
	// template entry (header, title prefix, or bare-line catalog). Lines
	// labeled only by header-context carry — where an exact template
	// cannot actually distinguish field content — dilute it, so
	// bare-heavy formats route to the CRF even when they technically
	// match.
	Confidence float64
}

// Compile induces the templates from labeled records keyed by their
// Registrar field, plus the registrar detection index. Titled lines with
// a value are keyed on their prefix, headers and null-block bare lines
// on their trimmed text; bare instance-data lines are left to header
// context. Records whose tokenization disagrees with their labels are
// skipped.
func Compile(records []*labels.LabeledRecord, opts tokenize.Options) *Compiled {
	c := &Compiled{
		templates: make(map[string]*compiledTemplate),
		detect:    make(map[string]*compiledTemplate),
		layout:    !opts.DisableLayout,
	}
	ambiguous := make(map[string]bool)
	// Registrar keys repeat once per training record; intern them so the
	// template map, the detection index and the tiered router's
	// per-template state all share one string instance per registrar.
	intern := make(map[string]string)
	for _, rec := range records {
		reg, ok := intern[rec.Registrar]
		if !ok {
			reg = rec.Registrar
			intern[reg] = reg
		}
		t := c.templates[reg]
		if t == nil {
			t = &compiledTemplate{
				registrar: reg,
				title:     make(map[string]rule),
				raw:       make(map[string]labels.Block),
				headers:   make(map[string]labels.Block),
			}
			c.templates[reg] = t
		}
		lines := tokenize.Tokenize(rec.Text, opts)
		if len(lines) != len(rec.Lines) {
			continue
		}
		for i, ln := range lines {
			lab := rec.Lines[i]
			trimmed := strings.TrimSpace(ln.Raw)
			switch {
			case ln.HasSep && ln.Value != "":
				t.title[prefixOf(ln.Raw, ln.Title, ln.Value)] = rule{block: lab.Block, field: lab.Field}
				// A line that literally names the registrar identifies
				// the template: index its exact text for detection.
				if ln.Value == rec.Registrar && !ambiguous[trimmed] {
					if prev, ok := c.detect[trimmed]; ok && prev != t {
						delete(c.detect, trimmed)
						ambiguous[trimmed] = true
					} else {
						c.detect[trimmed] = t
					}
				}
			case isHeader(trimmed, ln.HasSep, ln.Value):
				t.headers[trimmed] = lab.Block
			default:
				if lab.Block == labels.Null {
					t.raw[trimmed] = lab.Block
				}
			}
		}
	}
	return c
}

// NumTemplates reports how many registrars compiled.
func (c *Compiled) NumTemplates() int { return len(c.templates) }

// HasTemplate reports whether a registrar compiled a template.
func (c *Compiled) HasTemplate(registrar string) bool {
	_, ok := c.templates[registrar]
	return ok
}

// Registrars returns the compiled registrar keys, sorted — for status
// endpoints and the tiered router's per-template state.
func (c *Compiled) Registrars() []string {
	out := make([]string, 0, len(c.templates))
	for reg := range c.templates {
		out = append(out, reg)
	}
	sort.Strings(out)
	return out
}

// line is one retained line of a record: the walk fills raw, trimmed
// and blank, the labelling pass the rest.
type line struct {
	trimmed string
	blank   bool // a dropped line came before it
	tok     tokenize.Line
	block   labels.Block
	field   labels.Field
}

// linePool holds the retained-line scratch between matches.
var linePool = sync.Pool{New: func() any { return new([]line) }}

// Match detects the record's registrar from its text and labels the
// record against that registrar's template. It returns ErrNoTemplate
// (bare, allocation-free) when no registrar-identity line is recognized,
// and ErrMismatch when any retained line deviates from the template.
// The errors carry no detail: the caller is a router, not a human.
func (c *Compiled) Match(text string) (Match, error) {
	return c.match(nil, text)
}

// MatchRegistrar labels the record against the given registrar's
// template, as a template parser handed the registrar by the thin record
// does. It fails like Match: ErrNoTemplate when the registrar has no
// template, ErrMismatch when the record deviates from it.
func (c *Compiled) MatchRegistrar(registrar, text string) (Match, error) {
	t := c.templates[registrar]
	if t == nil {
		return Match{}, ErrNoTemplate
	}
	return c.match(t, text)
}

// match walks text's retained lines once into pooled scratch, detecting
// the template on the way when t is nil, then labels them there. Only a
// match allocates: the result's three slices.
func (c *Compiled) match(t *compiledTemplate, text string) (Match, error) {
	buf := linePool.Get().(*[]line)
	defer linePool.Put(buf)
	lines := (*buf)[:0]
	for rest := text; ; {
		raw, next, blank := tokenize.NextLine(rest)
		if raw == "" {
			break
		}
		rest = next
		trimmed := strings.TrimSpace(raw)
		if t == nil {
			t = c.detect[trimmed]
		}
		lines = append(lines, line{trimmed: trimmed, blank: blank, tok: tokenize.Line{Raw: raw}})
	}
	*buf = lines
	if t == nil {
		return Match{}, ErrNoTemplate
	}
	return c.label(t, lines)
}

// label is the one labelling pass, over the scratch in place; the result
// is copied out only once every line has matched. Headers set the block
// that bare lines below them carry; a blank line ends that context when
// layout is on, as the tokenizer's NL marker does.
func (c *Compiled) label(t *compiledTemplate, lines []line) (Match, error) {
	n := len(lines)
	if n == 0 {
		return Match{}, ErrMismatch
	}
	exact := 0
	context := labels.Null
	haveContext := false
	for i := range lines {
		ln := &lines[i]
		if ln.blank && c.layout {
			haveContext = false
		}
		title, value, hasSep := tokenize.SplitTitleValue(ln.trimmed)
		block := labels.Null
		field := labels.FieldOther
		switch {
		case isHeader(ln.trimmed, hasSep, value):
			if b, ok := t.headers[ln.trimmed]; ok {
				block = b
				context, haveContext = b, true
				exact++
				break
			}
			if hasSep {
				if r, ok := t.title[prefixOf(ln.tok.Raw, title, value)]; ok {
					block = r.block
					if block == labels.Registrant && value != "" {
						field = r.field
					}
					context, haveContext = block, true
					exact++
					break
				}
			}
			return Match{}, ErrMismatch
		case hasSep:
			r, ok := t.title[prefixOf(ln.tok.Raw, title, value)]
			if !ok {
				return Match{}, ErrMismatch
			}
			block = r.block
			if block == labels.Registrant && value != "" {
				field = r.field
			}
			exact++
		default:
			if b, ok := t.raw[ln.trimmed]; ok {
				block = b
				haveContext = false
				exact++
				break
			}
			if !haveContext {
				return Match{}, ErrMismatch
			}
			block = context
		}
		ln.tok.Title, ln.tok.Value, ln.tok.HasSep = title, value, hasSep
		ln.block, ln.field = block, field
	}
	m := Match{
		Registrar:  t.registrar,
		Lines:      make([]tokenize.Line, n),
		Blocks:     make([]labels.Block, n),
		Fields:     make([]labels.Field, n),
		Confidence: float64(exact) / float64(n),
	}
	for i := range lines {
		m.Lines[i], m.Blocks[i], m.Fields[i] = lines[i].tok, lines[i].block, lines[i].field
	}
	return m, nil
}
