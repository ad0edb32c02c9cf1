// Package rdap implements a minimal Registration Data Access Protocol
// (RDAP) service and client. The paper's background section (§2.2) points
// at the IETF WEIRDS drafts — "well-received proposals to completely
// scrap the WHOIS system altogether for a protocol with a well-defined
// structured data schema" — as the eventual fix for the parsing problem
// this repository reproduces. Implementing the structured path alongside
// the statistical parser lets the experiments demonstrate the contrast
// directly: RDAP responses parse with encoding/json and no model at all.
//
// The JSON shapes follow the domain object class of the RDAP drafts
// (objectClassName, ldhName, entities with vcardArray, events, status,
// nameservers), simplified to the fields the rest of this repository
// models.
package rdap

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/identity"
	"repro/internal/templates"
)

// Domain is the RDAP domain object class.
type Domain struct {
	ObjectClassName string       `json:"objectClassName"`
	LDHName         string       `json:"ldhName"`
	Handle          string       `json:"handle,omitempty"`
	Status          []string     `json:"status,omitempty"`
	Events          []Event      `json:"events,omitempty"`
	Entities        []Entity     `json:"entities,omitempty"`
	Nameservers     []Nameserver `json:"nameservers,omitempty"`
	Port43          string       `json:"port43,omitempty"`
}

// Event is a dated lifecycle event ("registration", "expiration", ...).
type Event struct {
	EventAction string    `json:"eventAction"`
	EventDate   time.Time `json:"eventDate"`
}

// Entity is a contact with one or more roles ("registrant", "registrar",
// "administrative", "technical"). Contact details ride in a jCard
// (vcardArray), per the RDAP drafts.
type Entity struct {
	ObjectClassName string   `json:"objectClassName"`
	Handle          string   `json:"handle,omitempty"`
	Roles           []string `json:"roles"`
	VCardArray      []any    `json:"vcardArray,omitempty"`
}

// Nameserver names one delegated name server.
type Nameserver struct {
	ObjectClassName string `json:"objectClassName"`
	LDHName         string `json:"ldhName"`
}

// vcard builds a jCard for a person: ["vcard", [[prop, {}, type, value]...]].
func vcard(p *identity.Person) []any {
	props := [][]any{
		{"version", map[string]any{}, "text", "4.0"},
		{"fn", map[string]any{}, "text", p.Name},
	}
	if p.Org != "" {
		props = append(props, []any{"org", map[string]any{}, "text", p.Org})
	}
	street := p.Street
	if p.Street2 != "" {
		street += ", " + p.Street2
	}
	props = append(props, []any{"adr", map[string]any{}, "text",
		[]any{"", "", street, p.City, p.State, p.Postcode, p.CountryName}})
	if p.Phone != "" {
		props = append(props, []any{"tel", map[string]any{"type": "voice"}, "uri", "tel:" + p.Phone})
	}
	if p.Email != "" {
		props = append(props, []any{"email", map[string]any{}, "text", p.Email})
	}
	out := make([]any, 0, len(props))
	for _, pr := range props {
		out = append(out, pr)
	}
	return []any{"vcard", out}
}

// FromRegistration converts the simulator's ground-truth registration into
// an RDAP domain object — what a thick registry would serve if it spoke
// RDAP instead of free-text WHOIS.
func FromRegistration(reg *templates.Registration) *Domain {
	d := &Domain{
		ObjectClassName: "domain",
		LDHName:         strings.ToLower(reg.Domain),
		Handle:          fmt.Sprintf("%s-REP", strings.ToUpper(strings.TrimSuffix(reg.Domain, "."+reg.TLD))),
		Status:          append([]string(nil), reg.Statuses...),
		Port43:          reg.WhoisServer,
		Events: []Event{
			{EventAction: "registration", EventDate: reg.Created},
			{EventAction: "last changed", EventDate: reg.Updated},
			{EventAction: "expiration", EventDate: reg.Expires},
		},
	}
	d.Entities = append(d.Entities,
		Entity{
			ObjectClassName: "entity",
			Handle:          fmt.Sprintf("registrar-%d", reg.RegistrarIANA),
			Roles:           []string{"registrar"},
			VCardArray: []any{"vcard", []any{
				[]any{"version", map[string]any{}, "text", "4.0"},
				[]any{"fn", map[string]any{}, "text", reg.RegistrarName},
				[]any{"url", map[string]any{}, "uri", reg.RegistrarURL},
			}},
		},
		Entity{ObjectClassName: "entity", Roles: []string{"registrant"}, VCardArray: vcard(&reg.Registrant)},
		Entity{ObjectClassName: "entity", Roles: []string{"administrative"}, VCardArray: vcard(&reg.Admin)},
		Entity{ObjectClassName: "entity", Roles: []string{"technical"}, VCardArray: vcard(&reg.Tech)},
	)
	for _, ns := range reg.NameServers {
		d.Nameservers = append(d.Nameservers, Nameserver{ObjectClassName: "nameserver", LDHName: strings.ToLower(ns)})
	}
	return d
}

// Contact is the flattened view of an entity's jCard, mirroring the
// fields the statistical parser extracts from free-text records.
type Contact struct {
	Name     string
	Org      string
	Street   string
	City     string
	State    string
	Postcode string
	Country  string
	Phone    string
	Email    string
}

// EntityByRole returns the first entity carrying the role, or nil.
func (d *Domain) EntityByRole(role string) *Entity {
	for i := range d.Entities {
		for _, r := range d.Entities[i].Roles {
			if r == role {
				return &d.Entities[i]
			}
		}
	}
	return nil
}

// ContactByRole extracts the flattened contact for a role. The second
// return is false when the role is absent.
func (d *Domain) ContactByRole(role string) (Contact, bool) {
	e := d.EntityByRole(role)
	if e == nil {
		return Contact{}, false
	}
	return flattenVCard(e.VCardArray), true
}

func flattenVCard(v []any) Contact {
	var c Contact
	if len(v) != 2 {
		return c
	}
	props, ok := v[1].([]any)
	if !ok {
		return c
	}
	for _, raw := range props {
		prop, ok := raw.([]any)
		if !ok || len(prop) < 4 {
			continue
		}
		name, _ := prop[0].(string)
		switch name {
		case "fn":
			c.Name, _ = prop[3].(string)
		case "org":
			c.Org, _ = prop[3].(string)
		case "tel":
			tel, _ := prop[3].(string)
			c.Phone = strings.TrimPrefix(tel, "tel:")
		case "email":
			c.Email, _ = prop[3].(string)
		case "adr":
			parts, ok := prop[3].([]any)
			if !ok || len(parts) < 7 {
				continue
			}
			get := func(i int) string {
				s, _ := parts[i].(string)
				return s
			}
			c.Street, c.City, c.State, c.Postcode, c.Country = get(2), get(3), get(4), get(5), get(6)
		}
	}
	return c
}

// EventDate returns the date of the first event carrying the action
// ("registration", "expiration", "last changed"), if present.
func (d *Domain) EventDate(action string) (time.Time, bool) {
	for _, e := range d.Events {
		if e.EventAction == action {
			return e.EventDate, true
		}
	}
	return time.Time{}, false
}

// RegistrationDate returns the "registration" event date, if present.
func (d *Domain) RegistrationDate() (time.Time, bool) {
	return d.EventDate("registration")
}

// ExpirationDate returns the "expiration" event date, if present.
func (d *Domain) ExpirationDate() (time.Time, bool) {
	return d.EventDate("expiration")
}

// LastChangedDate returns the "last changed" event date, if present.
func (d *Domain) LastChangedDate() (time.Time, bool) {
	return d.EventDate("last changed")
}

// RegistrarName returns the registrar entity's display name (jCard fn),
// or "" when the domain carries no registrar entity.
func (d *Domain) RegistrarName() string {
	e := d.EntityByRole("registrar")
	if e == nil {
		return ""
	}
	return flattenVCard(e.VCardArray).Name
}

// NameserverNames returns the delegated nameserver LDH names in order.
func (d *Domain) NameserverNames() []string {
	if len(d.Nameservers) == 0 {
		return nil
	}
	out := make([]string, len(d.Nameservers))
	for i, ns := range d.Nameservers {
		out[i] = ns.LDHName
	}
	return out
}
