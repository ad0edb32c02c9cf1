// Package templates models the *format diversity* at the heart of the
// paper: each registrar (or thick-registry TLD) renders domain
// registration data into its own WHOIS schema. A Schema turns a
// Registration into record text plus per-line ground-truth labels, which
// is how the synthetic corpus (internal/synth) gets labeled data "for
// free" — standing in for the paper's 86K rule-labeled records.
//
// The com schema pool (schemas_com.go) contains several format families
// with many variants each, mirroring the between-registrar diversity of
// the thin com registry; schemas_newtld.go defines the 12 single-registrar
// new-TLD formats of Table 2.
package templates

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/identity"
	"repro/internal/labels"
)

// Registration is the ground-truth registration data for one domain,
// independent of any output format.
type Registration struct {
	Domain        string // fully qualified, lower case ("example.com")
	TLD           string
	RegistrarName string
	RegistrarIANA int
	RegistrarURL  string
	WhoisServer   string // the registrar's thick WHOIS server

	Created time.Time
	Updated time.Time
	Expires time.Time

	Registrant identity.Person
	Admin      identity.Person
	Tech       identity.Person

	NameServers []string
	Statuses    []string

	// Privacy reports that the registrant identity is a privacy-protection
	// placeholder; PrivacyService names the service.
	Privacy        bool
	PrivacyService string
}

// Rendered is the output of Schema.Render: the record text and the
// ground-truth label for every retained (labelable) line, in order.
type Rendered struct {
	Text  string
	Lines []labels.LabeledLine
}

// ValueFn extracts a string from a Registration at render time.
type ValueFn func(r *Registration) string

// TitleStyle rewrites field titles into the schema's house style.
type TitleStyle func(string) string

// Identity title styles.
var (
	StyleAsIs  TitleStyle = func(s string) string { return s }
	StyleUpper TitleStyle = strings.ToUpper
	StyleLower TitleStyle = strings.ToLower
	// StyleSnake lowercases and replaces spaces with underscores
	// ("Registrant Name" -> "registrant_name").
	StyleSnake TitleStyle = func(s string) string {
		return strings.ReplaceAll(strings.ToLower(s), " ", "_")
	}
)

// Schema describes one WHOIS output format.
type Schema struct {
	// ID uniquely names the schema (e.g. "icann-v3").
	ID string
	// TLD is non-empty for registry-wide (thick TLD) schemas.
	TLD string
	// Title styles every field title; nil means StyleAsIs.
	Title TitleStyle
	// Sep separates title from value ("": use ": ").
	Sep string
	// AlignWidth > 0 pads titles with AlignFill up to the width before the
	// separator (the "Domain Name..........:" style).
	AlignWidth int
	// AlignFill is the padding byte, '.' or ' '. Zero means '.'.
	AlignFill byte
	// DateFmt is the Go layout for rendering dates; "" means "2006-01-02".
	DateFmt string
	// Indent prefixes value-only lines in block-context sections.
	Indent string
	// Elements compose the record top to bottom.
	Elements []Element
}

// Element is one renderable piece of a schema.
type Element interface {
	render(s *Schema, r *Registration, out *builder)
}

type builder struct {
	text  strings.Builder
	lines []labels.LabeledLine
}

func (b *builder) addRaw(line string) {
	b.text.WriteString(line)
	b.text.WriteByte('\n')
}

func (b *builder) addLabeled(line string, block labels.Block, field labels.Field) {
	b.addRaw(line)
	if hasAlnum(line) {
		b.lines = append(b.lines, labels.LabeledLine{Text: line, Block: block, Field: field})
	}
}

func hasAlnum(s string) bool {
	for _, r := range s {
		if (r >= '0' && r <= '9') || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r > 127 {
			return true
		}
	}
	return false
}

// Render produces the record text and ground-truth labels for r. The
// text is copied out of the builder at its exact size: callers keep
// rendered texts for a process's life, and a substring of the builder
// would also pin its spare capacity.
func (s *Schema) Render(r *Registration) Rendered {
	var b builder
	for _, e := range s.Elements {
		e.render(s, r, &b)
	}
	text := strings.Clone(strings.TrimRight(b.text.String(), "\n"))
	return Rendered{Text: text, Lines: b.lines}
}

func (s *Schema) sep() string {
	if s.Sep == "" {
		return ": "
	}
	return s.Sep
}

func (s *Schema) styleTitle(t string) string {
	if s.Title == nil {
		return t
	}
	return s.Title(t)
}

func (s *Schema) formatKV(title, value string) string {
	t := s.styleTitle(title)
	if s.AlignWidth > 0 {
		fill := s.AlignFill
		if fill == 0 {
			fill = '.'
		}
		for len(t) < s.AlignWidth {
			t += string(fill)
		}
	}
	return t + s.sep() + value
}

func (s *Schema) date(t time.Time) string {
	layout := s.DateFmt
	if layout == "" {
		layout = "2006-01-02"
	}
	return t.Format(layout)
}

// ---- Elements ----

// kv renders "Title<sep>value" labeled (block, field). Empty values are
// skipped.
type kv struct {
	block labels.Block
	field labels.Field
	title string
	value ValueFn
}

func (e kv) render(s *Schema, r *Registration, out *builder) {
	v := e.value(r)
	if v == "" {
		return
	}
	out.addLabeled(s.formatKV(e.title, v), e.block, e.field)
}

// KV builds a titled key/value line element.
func KV(block labels.Block, field labels.Field, title string, value ValueFn) Element {
	return kv{block: block, field: field, title: title, value: value}
}

// bare renders an untitled value line (block-context style), indented per
// the schema.
type bare struct {
	block labels.Block
	field labels.Field
	value ValueFn
}

func (e bare) render(s *Schema, r *Registration, out *builder) {
	v := e.value(r)
	if v == "" {
		return
	}
	out.addLabeled(s.Indent+v, e.block, e.field)
}

// Bare builds an untitled, indented value line element.
func Bare(block labels.Block, field labels.Field, value ValueFn) Element {
	return bare{block: block, field: field, value: value}
}

// header renders a section header line such as "Registrant:".
type header struct {
	block labels.Block
	field labels.Field
	text  string
}

func (e header) render(s *Schema, r *Registration, out *builder) {
	out.addLabeled(s.styleTitle(e.text), e.block, e.field)
}

// Header builds a section-header element labeled (block, field).
func Header(block labels.Block, field labels.Field, text string) Element {
	return header{block: block, field: field, text: text}
}

// raw renders fixed text lines all carrying one label (usually Null
// boilerplate).
type raw struct {
	block labels.Block
	lines []string
}

func (e raw) render(s *Schema, r *Registration, out *builder) {
	for _, ln := range e.lines {
		out.addLabeled(ln, e.block, labels.FieldOther)
	}
}

// Raw builds a fixed-text element; every line is labeled (block, other).
func Raw(block labels.Block, lines ...string) Element {
	return raw{block: block, lines: lines}
}

// blank emits an empty line (unlabeled; becomes an NL marker downstream).
type blank struct{}

func (blank) render(s *Schema, r *Registration, out *builder) { out.addRaw("") }

// Blank builds an empty-line element.
func Blank() Element { return blank{} }

// dyn renders computed lines at render time; fn returns (text, block,
// field) triples.
type dyn struct {
	fn func(s *Schema, r *Registration) []labels.LabeledLine
}

func (e dyn) render(s *Schema, r *Registration, out *builder) {
	for _, ln := range e.fn(s, r) {
		out.addLabeled(ln.Text, ln.Block, ln.Field)
	}
}

// Dyn builds an element from a render-time callback.
func Dyn(fn func(s *Schema, r *Registration) []labels.LabeledLine) Element { return dyn{fn: fn} }

// ---- Common value functions ----

// Rd returns the domain (upper-cased when up is true).
func Rd(up bool) ValueFn {
	return func(r *Registration) string {
		if up {
			return strings.ToUpper(r.Domain)
		}
		return r.Domain
	}
}

// RegistrarName, RegistrarURL, WhoisServer, IANA expose registrar fields.
func RegistrarName(r *Registration) string { return r.RegistrarName }

// RegistrarURL returns the registrar's web URL.
func RegistrarURL(r *Registration) string { return r.RegistrarURL }

// WhoisServer returns the registrar's WHOIS server host name.
func WhoisServer(r *Registration) string { return r.WhoisServer }

// IANA returns the registrar's IANA id as decimal text.
func IANA(r *Registration) string { return fmt.Sprintf("%d", r.RegistrarIANA) }

// DateCreated renders the creation date in the schema's format; it must be
// wrapped via WithSchema at schema build time, so instead we provide
// schema-aware dynamic elements below.

// ContactSel selects one of the three contacts.
type ContactSel func(r *Registration) *identity.Person

// Registrant, Admin and Tech select the respective contacts.
func Registrant(r *Registration) *identity.Person { return &r.Registrant }

// Admin selects the administrative contact.
func Admin(r *Registration) *identity.Person { return &r.Admin }

// Tech selects the technical contact.
func Tech(r *Registration) *identity.Person { return &r.Tech }

// P lifts a Person field accessor into a ValueFn for the selected contact.
func P(sel ContactSel, get func(*identity.Person) string) ValueFn {
	return func(r *Registration) string { return get(sel(r)) }
}

// Person field accessors for use with P.
func Name(p *identity.Person) string     { return p.Name }
func Org(p *identity.Person) string      { return p.Org }
func Street(p *identity.Person) string   { return p.Street }
func Street2(p *identity.Person) string  { return p.Street2 }
func City(p *identity.Person) string     { return p.City }
func State(p *identity.Person) string    { return p.State }
func Postcode(p *identity.Person) string { return p.Postcode }
func CountryCode(p *identity.Person) string {
	return p.CountryCode
}
func CountryName(p *identity.Person) string { return p.CountryName }
func PhoneOf(p *identity.Person) string     { return p.Phone }
func FaxOf(p *identity.Person) string       { return p.Fax }
func EmailOf(p *identity.Person) string     { return p.Email }

// DateKV renders a titled date line in the schema's date format.
func DateKV(title string, get func(r *Registration) time.Time) Element {
	return Dyn(func(s *Schema, r *Registration) []labels.LabeledLine {
		return []labels.LabeledLine{{
			Text:  s.formatKV(title, s.date(get(r))),
			Block: labels.Date,
			Field: labels.FieldOther,
		}}
	})
}

// Created, Updated and Expires are date accessors for DateKV.
func Created(r *Registration) time.Time { return r.Created }

// Updated returns the last-updated timestamp.
func Updated(r *Registration) time.Time { return r.Updated }

// Expires returns the expiration timestamp.
func Expires(r *Registration) time.Time { return r.Expires }

// NameServersKV renders one titled line per name server.
func NameServersKV(title string, upper bool) Element {
	return Dyn(func(s *Schema, r *Registration) []labels.LabeledLine {
		out := make([]labels.LabeledLine, 0, len(r.NameServers))
		for _, ns := range r.NameServers {
			if upper {
				ns = strings.ToUpper(ns)
			}
			out = append(out, labels.LabeledLine{
				Text:  s.formatKV(title, ns),
				Block: labels.Domain,
				Field: labels.FieldOther,
			})
		}
		return out
	})
}

// NameServersBare renders one indented untitled line per name server.
func NameServersBare(upper bool) Element {
	return Dyn(func(s *Schema, r *Registration) []labels.LabeledLine {
		out := make([]labels.LabeledLine, 0, len(r.NameServers))
		for _, ns := range r.NameServers {
			if upper {
				ns = strings.ToUpper(ns)
			}
			out = append(out, labels.LabeledLine{
				Text:  s.Indent + ns,
				Block: labels.Domain,
				Field: labels.FieldOther,
			})
		}
		return out
	})
}

// StatusesKV renders one titled line per domain status.
func StatusesKV(title string) Element {
	return Dyn(func(s *Schema, r *Registration) []labels.LabeledLine {
		out := make([]labels.LabeledLine, 0, len(r.Statuses))
		for _, st := range r.Statuses {
			out = append(out, labels.LabeledLine{
				Text:  s.formatKV(title, st),
				Block: labels.Domain,
				Field: labels.FieldOther,
			})
		}
		return out
	})
}

// CityStateZip renders "City, ST 12345" as a single line labeled city —
// the paper's "at most one kind of information per line" assumption keeps
// a single label; city is the convention both our parsers and ground
// truth share.
func CityStateZip(sel ContactSel) ValueFn {
	return func(r *Registration) string {
		p := sel(r)
		out := p.City
		if p.State != "" {
			out += ", " + p.State
		}
		if p.Postcode != "" {
			out += " " + p.Postcode
		}
		return out
	}
}
