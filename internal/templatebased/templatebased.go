// Package templatebased implements the paper's template-based baseline
// (§2.3): a parser built from one exact template per registrar, in the
// style of deft-whois, Ruby whois and WhoisParser. Records are first
// classified by registrar; if no template exists the parse fails with
// ErrNoTemplate (the "crisp failure signal"), and if the record's lines
// deviate from the stored template — a renamed title, a reordered field, a
// new boilerplate sentence — the parse fails with ErrMismatch. That
// fragility to minor format change is the point the paper demonstrates
// with deft-whois's 94% template coverage but near-total failure under
// drift.
package templatebased

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/labels"
	"repro/internal/tokenize"
)

// ErrNoTemplate reports that the record's registrar has no template.
var ErrNoTemplate = errors.New("templatebased: no template for registrar")

// ErrMismatch reports that a line did not match the registrar's template.
var ErrMismatch = errors.New("templatebased: record deviates from template")

// template is the per-registrar line catalog. Titled lines are keyed on
// their exact *prefix* — the rendered title plus separator, byte for byte —
// because real template parsers anchor regexes on the literal "Title: "
// text; even a separator change ("Title : ") breaks them (§2.3).
type template struct {
	titleBlock map[string]labels.Block
	titleField map[string]labels.Field
	rawBlock   map[string]labels.Block // exact trimmed text -> block
	headers    map[string]labels.Block // exact trimmed header -> context block
}

// linePrefix extracts the literal title+separator prefix of a titled line.
func linePrefix(ln tokenize.Line) string { return prefixOf(ln.Raw, ln.Title, ln.Value) }

// prefixOf derives the title+separator prefix from the raw line text —
// the template key both Build and the compiled fast path (Match) use.
// Every return value is a substring of raw (or the already-materialized
// title), so key derivation on the hot matching path is allocation-free
// and needs no tokenize.Line.
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

func newTemplate() *template {
	return &template{
		titleBlock: make(map[string]labels.Block),
		titleField: make(map[string]labels.Field),
		rawBlock:   make(map[string]labels.Block),
		headers:    make(map[string]labels.Block),
	}
}

// Parser holds one template per registrar.
type Parser struct {
	templates map[string]*template
	opts      tokenize.Options
}

// Build learns templates from labeled records keyed by their Registrar
// field (real template parsers key on the registrar WHOIS server extracted
// from the thin record; our LabeledRecord carries the same identity).
func Build(records []*labels.LabeledRecord, opts tokenize.Options) *Parser {
	p := &Parser{templates: make(map[string]*template), opts: opts}
	// Registrar keys repeat once per training record; intern them so the
	// template map, the compiled detection index, and the tiered router's
	// per-template state all share one string instance per registrar.
	intern := make(map[string]string)
	for _, rec := range records {
		reg, ok := intern[rec.Registrar]
		if !ok {
			reg = rec.Registrar
			intern[reg] = reg
		}
		t := p.templates[reg]
		if t == nil {
			t = newTemplate()
			p.templates[reg] = t
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
				t.titleBlock[linePrefix(ln)] = lab.Block
				t.titleField[linePrefix(ln)] = lab.Field
			case isHeader(ln):
				t.headers[trimmed] = lab.Block
			default:
				if lab.Block == labels.Null {
					t.rawBlock[trimmed] = lab.Block
				}
				// Bare instance-data lines are covered by header context.
			}
		}
	}
	return p
}

func isHeader(ln tokenize.Line) bool {
	trimmed := strings.TrimSpace(ln.Raw)
	if ln.HasSep && ln.Value == "" {
		return true
	}
	return strings.HasSuffix(trimmed, ":") && tokenize.CountWords(trimmed) <= 7
}

// NumTemplates reports how many registrars have templates.
func (p *Parser) NumTemplates() int { return len(p.templates) }

// HasTemplate reports whether a registrar is covered.
func (p *Parser) HasTemplate(registrar string) bool {
	_, ok := p.templates[registrar]
	return ok
}

// Coverage returns the fraction of records whose registrar has a template
// (the §2.3 "94% of our test data comes from registrars ... represented by
// these templates" metric).
func (p *Parser) Coverage(records []*labels.LabeledRecord) float64 {
	if len(records) == 0 {
		return 0
	}
	n := 0
	for _, rec := range records {
		if p.HasTemplate(rec.Registrar) {
			n++
		}
	}
	return float64(n) / float64(len(records))
}

// ParseBlocks labels a record using its registrar's template. Unlike the
// rule-based and statistical parsers it requires the registrar identity,
// exactly as real template parsers do, and it fails crisply.
func (p *Parser) ParseBlocks(registrar, text string) ([]tokenize.Line, []labels.Block, error) {
	t := p.templates[registrar]
	if t == nil {
		return nil, nil, fmt.Errorf("%w: %q", ErrNoTemplate, registrar)
	}
	lines := tokenize.Tokenize(text, p.opts)
	out := make([]labels.Block, len(lines))
	context := labels.Null
	haveContext := false
	for i, ln := range lines {
		trimmed := strings.TrimSpace(ln.Raw)
		for _, o := range ln.Obs {
			if o == tokenize.MarkNL {
				haveContext = false
			}
		}
		switch {
		case isHeader(ln):
			if b, ok := t.headers[trimmed]; ok {
				out[i] = b
				context, haveContext = b, true
				continue
			}
			if ln.HasSep {
				if b, ok := t.titleBlock[linePrefix(ln)]; ok {
					out[i] = b
					context, haveContext = b, true
					continue
				}
			}
			return lines, nil, fmt.Errorf("%w: unknown header %q", ErrMismatch, trimmed)
		case ln.HasSep:
			if b, ok := t.titleBlock[linePrefix(ln)]; ok {
				out[i] = b
				continue
			}
			return lines, nil, fmt.Errorf("%w: unknown title %q", ErrMismatch, ln.Title)
		default:
			if b, ok := t.rawBlock[trimmed]; ok {
				out[i] = b
				haveContext = false
				continue
			}
			if haveContext {
				out[i] = context
				continue
			}
			return lines, nil, fmt.Errorf("%w: unexpected line %q", ErrMismatch, trimmed)
		}
	}
	return lines, out, nil
}

// ParseFields assigns second-level labels using the template's exact title
// rules. Bare registrant lines cannot be distinguished by an exact
// template, so they are labeled other — a structural limitation of the
// approach.
func (p *Parser) ParseFields(registrar string, lines []tokenize.Line, blocks []labels.Block) ([]labels.Field, error) {
	t := p.templates[registrar]
	if t == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoTemplate, registrar)
	}
	out := make([]labels.Field, len(lines))
	for i := range out {
		out[i] = labels.FieldOther
	}
	for i, ln := range lines {
		if blocks[i] != labels.Registrant || !ln.HasSep || ln.Value == "" {
			continue
		}
		if f, ok := t.titleField[linePrefix(ln)]; ok {
			out[i] = f
		}
	}
	return out, nil
}
