// Package consistency cross-checks a domain's registration data between
// the two protocols that serve it: the free-text WHOIS record (parsed by
// the two-level CRF in internal/core) and the structured RDAP domain
// object (internal/rdap). The paper's background section frames RDAP as
// the structured replacement for WHOIS; in the transition both protocols
// answer for the same domains, and they are supposed to agree. Following
// the cross-protocol audit methodology of "WHOIS Right? An Analysis of
// WHOIS and RDAP Consistency" (PAM 2024, arXiv 2406.02046), this package
// normalizes both answers into a common field set and classifies each
// field into a four-way agreement taxonomy:
//
//   - Equal: byte-identical values on both sides;
//   - Equivalent: equal after normalization (date-format folds, registrar
//     name folds, host-case folds — internal/norm);
//   - MissingWHOIS / MissingRDAP / MissingBoth: the value is absent on
//     one or both sides;
//   - Conflict: present on both sides and different even after
//     normalization — a genuine cross-protocol disagreement.
//
// Only Conflict counts as a disagreement: missing-in-one is
// incompleteness (thin WHOIS, privacy redaction), not inconsistency.
package consistency

import (
	"strings"

	"repro/internal/core"
	"repro/internal/labels"
	"repro/internal/norm"
	"repro/internal/rdap"
	"repro/internal/tokenize"
)

// Field identifies one compared registration field.
type Field int

// The compared field set: the registrar identity, the three lifecycle
// dates, the registrant contact (the WHOIS parser's second-level CRF
// extracts only the registrant block, so admin/tech contacts compare as
// naturally missing-in-WHOIS), and the two multi-valued domain facts.
const (
	FieldRegistrar Field = iota
	FieldCreated
	FieldUpdated
	FieldExpires
	FieldRegistrantName
	FieldRegistrantEmail
	FieldRegistrantCountry
	FieldAdminEmail
	FieldTechEmail
	FieldNameServers
	FieldStatuses
	NumFields
)

var fieldNames = [NumFields]string{
	"registrar", "created", "updated", "expires",
	"registrant.name", "registrant.email", "registrant.country",
	"admin.email", "tech.email", "nameservers", "statuses",
}

// String returns the field's stable display name.
func (f Field) String() string {
	if f < 0 || f >= NumFields {
		return "invalid"
	}
	return fieldNames[f]
}

// Verdict classifies one field's cross-protocol agreement.
type Verdict int

// Verdict values; see the package comment for the taxonomy.
const (
	Equal Verdict = iota
	Equivalent
	MissingWHOIS
	MissingRDAP
	MissingBoth
	Conflict
	NumVerdicts
)

var verdictNames = [NumVerdicts]string{
	"equal", "equivalent", "missing-whois", "missing-rdap", "missing-both", "conflict",
}

// String returns the verdict's stable display name.
func (v Verdict) String() string {
	if v < 0 || v >= NumVerdicts {
		return "invalid"
	}
	return verdictNames[v]
}

// ContactView is the protocol-neutral slice of a contact that both sides
// can express: the jCard fn/email/adr country on the RDAP side, the
// second-level CRF subfields on the WHOIS side.
type ContactView struct {
	Name    string
	Email   string
	Country string
}

// FieldView is one protocol's answer projected onto the common field
// set. Values are raw (un-normalized); Compare applies the canonical
// folds so the Equal/Equivalent distinction stays observable.
type FieldView struct {
	Domain    string
	Registrar string
	// Created, Updated, Expires are date strings in whatever layout the
	// protocol used (free-text WHOIS layouts, RFC 3339 for RDAP).
	Created string
	Updated string
	Expires string

	Registrant ContactView
	Admin      ContactView
	Tech       ContactView

	NameServers []string
	Statuses    []string
}

// Value returns the view's raw value for one compared field, with the
// multi-valued fields joined by ", " — the display form the one-shot
// CLI prints side by side.
func (v FieldView) Value(f Field) string {
	switch f {
	case FieldRegistrar:
		return v.Registrar
	case FieldCreated:
		return v.Created
	case FieldUpdated:
		return v.Updated
	case FieldExpires:
		return v.Expires
	case FieldRegistrantName:
		return v.Registrant.Name
	case FieldRegistrantEmail:
		return v.Registrant.Email
	case FieldRegistrantCountry:
		return v.Registrant.Country
	case FieldAdminEmail:
		return v.Admin.Email
	case FieldTechEmail:
		return v.Tech.Email
	case FieldNameServers:
		return strings.Join(v.NameServers, ", ")
	case FieldStatuses:
		return strings.Join(v.Statuses, ", ")
	}
	return ""
}

// FromWHOIS projects a parsed WHOIS record onto the common field set.
// Records decoded from older store segments carry no NameServers or
// Statuses (the lists postdate them) and their Lines hold only raw text;
// for those the projection re-derives the domain-block multi-values by
// re-splitting the raw lines, so old corpora remain auditable.
func FromWHOIS(pr *core.ParsedRecord) FieldView {
	v := FieldView{
		Domain:    pr.DomainName,
		Registrar: pr.Registrar,
		Created:   pr.CreatedDate,
		Updated:   pr.UpdatedDate,
		Expires:   pr.ExpiresDate,
		Registrant: ContactView{
			Name:    pr.Registrant.Name,
			Email:   pr.Registrant.Email,
			Country: pr.Registrant.Country,
		},
		NameServers: pr.NameServers,
		Statuses:    pr.Statuses,
	}
	if len(v.NameServers) == 0 && len(v.Statuses) == 0 {
		v.NameServers, v.Statuses = domainMetaFromLines(pr)
	}
	return v
}

// domainMetaFromLines recovers name servers and statuses from the raw
// domain-block lines, mirroring the keyword rules of core's extractor.
// Store-decoded lines keep only Raw, so titles are re-split here.
func domainMetaFromLines(pr *core.ParsedRecord) (ns, statuses []string) {
	for i, ln := range pr.Lines {
		if i >= len(pr.Blocks) || pr.Blocks[i] != labels.Domain {
			continue
		}
		title, val := ln.Title, ln.Value
		if title == "" && val == "" {
			var ok bool
			if title, val, ok = tokenize.SplitTitleValue(strings.TrimSpace(ln.Raw)); !ok {
				continue
			}
		}
		lower := strings.ToLower(title)
		switch {
		case val != "" && !strings.Contains(lower, "whois") && !strings.Contains(lower, "dnssec") &&
			(strings.Contains(lower, "name server") || strings.Contains(lower, "nameserver") ||
				strings.Contains(lower, "nserver") || strings.Contains(lower, "dns")):
			ns = append(ns, val)
		case val != "" && strings.Contains(lower, "status"):
			statuses = append(statuses, val)
		}
	}
	return ns, statuses
}

// FromRDAP projects an RDAP domain object onto the common field set.
// Dates render as RFC 3339 — a different spelling than most WHOIS
// records, which is exactly what the Equivalent verdict absorbs.
func FromRDAP(d *rdap.Domain) FieldView {
	v := FieldView{
		Domain:      d.LDHName,
		Registrar:   d.RegistrarName(),
		NameServers: d.NameserverNames(),
		Statuses:    append([]string(nil), d.Status...),
	}
	if t, ok := d.RegistrationDate(); ok {
		v.Created = t.Format("2006-01-02T15:04:05Z07:00")
	}
	if t, ok := d.LastChangedDate(); ok {
		v.Updated = t.Format("2006-01-02T15:04:05Z07:00")
	}
	if t, ok := d.ExpirationDate(); ok {
		v.Expires = t.Format("2006-01-02T15:04:05Z07:00")
	}
	if c, ok := d.ContactByRole("registrant"); ok {
		v.Registrant = ContactView{Name: c.Name, Email: c.Email, Country: c.Country}
	}
	if c, ok := d.ContactByRole("administrative"); ok {
		v.Admin = ContactView{Name: c.Name, Email: c.Email, Country: c.Country}
	}
	if c, ok := d.ContactByRole("technical"); ok {
		v.Tech = ContactView{Name: c.Name, Email: c.Email, Country: c.Country}
	}
	return v
}

// Comparison is the per-field agreement of one domain's two answers.
type Comparison struct {
	// Domain is the compared domain (RDAP's LDH name when present).
	Domain string
	// Registrar is the display registrar the comparison groups under —
	// the RDAP registrar entity when present (it is the structured,
	// authoritative spelling), else the WHOIS extraction.
	Registrar string
	// Verdicts holds one verdict per Field.
	Verdicts [NumFields]Verdict
}

// Compare classifies every common field of the two views.
func Compare(w, r FieldView) Comparison {
	c := Comparison{Domain: r.Domain, Registrar: r.Registrar}
	if c.Domain == "" {
		c.Domain = w.Domain
	}
	if c.Registrar == "" {
		c.Registrar = w.Registrar
	}
	c.Verdicts[FieldRegistrar] = compareScalar(w.Registrar, r.Registrar, norm.Registrar)
	c.Verdicts[FieldCreated] = compareScalar(w.Created, r.Created, norm.DateKey)
	c.Verdicts[FieldUpdated] = compareScalar(w.Updated, r.Updated, norm.DateKey)
	c.Verdicts[FieldExpires] = compareScalar(w.Expires, r.Expires, norm.DateKey)
	c.Verdicts[FieldRegistrantName] = compareScalar(w.Registrant.Name, r.Registrant.Name, norm.Registrar)
	c.Verdicts[FieldRegistrantEmail] = compareScalar(w.Registrant.Email, r.Registrant.Email, norm.Email)
	c.Verdicts[FieldRegistrantCountry] = compareScalar(w.Registrant.Country, r.Registrant.Country, norm.CountryKey)
	c.Verdicts[FieldAdminEmail] = compareScalar(w.Admin.Email, r.Admin.Email, norm.Email)
	c.Verdicts[FieldTechEmail] = compareScalar(w.Tech.Email, r.Tech.Email, norm.Email)
	c.Verdicts[FieldNameServers] = compareList(w.NameServers, r.NameServers, norm.Hosts)
	c.Verdicts[FieldStatuses] = compareList(w.Statuses, r.Statuses, norm.Statuses)
	return c
}

// compareScalar classifies two scalar values under a normalization key.
// A value whose key folds to empty (e.g. an unparseable date) counts as
// missing: the protocol answered, but not with comparable content.
func compareScalar(w, r string, key func(string) string) Verdict {
	wk, rk := key(w), key(r)
	switch {
	case wk == "" && rk == "":
		return MissingBoth
	case wk == "":
		return MissingWHOIS
	case rk == "":
		return MissingRDAP
	case strings.TrimSpace(w) == strings.TrimSpace(r):
		return Equal
	case wk == rk:
		return Equivalent
	default:
		return Conflict
	}
}

// compareList classifies two multi-valued fields. Equal means the same
// values in the same order; Equivalent means the same normalized sets
// (order- and case-insensitive, duplicates folded).
func compareList(w, r []string, key func([]string) []string) Verdict {
	wk, rk := key(w), key(r)
	switch {
	case len(wk) == 0 && len(rk) == 0:
		return MissingBoth
	case len(wk) == 0:
		return MissingWHOIS
	case len(rk) == 0:
		return MissingRDAP
	case stringsEqual(w, r):
		return Equal
	case stringsEqual(wk, rk):
		return Equivalent
	default:
		return Conflict
	}
}

func stringsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Conflicts returns the number of conflicting fields.
func (c *Comparison) Conflicts() int {
	n := 0
	for _, v := range c.Verdicts {
		if v == Conflict {
			n++
		}
	}
	return n
}

// Comparable returns the number of fields present on both sides — the
// denominator for a disagreement rate. Fields missing on either side
// cannot conflict and are excluded.
func (c *Comparison) Comparable() int {
	n := 0
	for _, v := range c.Verdicts {
		switch v {
		case Equal, Equivalent, Conflict:
			n++
		}
	}
	return n
}

// Rate returns the record's disagreement rate: conflicting fields over
// comparable fields, 0 when nothing was comparable.
func (c *Comparison) Rate() float64 {
	comp := c.Comparable()
	if comp == 0 {
		return 0
	}
	return float64(c.Conflicts()) / float64(comp)
}

// ConflictFields lists the conflicting fields in field order.
func (c *Comparison) ConflictFields() []Field {
	var out []Field
	for f := Field(0); f < NumFields; f++ {
		if c.Verdicts[f] == Conflict {
			out = append(out, f)
		}
	}
	return out
}
