package rdap

import (
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/labels"
)

// ParsedDomain is the RDAP-flavored JSON served by /parsed/{name}: the
// output of running the statistical parser (internal/core) over the raw
// free-text WHOIS record, shaped like an RDAP domain object. Where
// /domain/{name} serves registry ground truth, /parsed/{name} serves the
// CRF's *reading* of the record — the bridge PAPERS.md's "WHOIS Right?"
// consistency work motivates: the same structured schema from both the
// structured and the free-text pipelines, directly comparable.
type ParsedDomain struct {
	ObjectClassName string `json:"objectClassName"` // always "domain"
	LDHName         string `json:"ldhName"`
	// Source distinguishes this view from authoritative RDAP data.
	Source string `json:"source"` // always "statistical-whois-parse"

	Registrar    string `json:"registrar,omitempty"`
	RegistrarURL string `json:"registrarUrl,omitempty"`
	Port43       string `json:"port43,omitempty"`

	// Events carry the extracted date strings verbatim — the parser
	// labels lines, it does not normalize timestamps.
	Events []ParsedEvent `json:"events,omitempty"`

	// Registrant holds the second-level CRF's subfield extraction.
	Registrant *ParsedContact `json:"registrant,omitempty"`

	// Lines is the per-line labeling: the record as the CRF segmented
	// it, for auditing a parse rather than consuming fields.
	Lines []ParsedLine `json:"lines"`
}

// ParsedEvent mirrors Event with the raw extracted date string.
type ParsedEvent struct {
	EventAction string `json:"eventAction"`
	EventDate   string `json:"eventDate"`
}

// ParsedContact is the extracted registrant block.
type ParsedContact struct {
	Name     string `json:"name,omitempty"`
	ID       string `json:"id,omitempty"`
	Org      string `json:"org,omitempty"`
	Street   string `json:"street,omitempty"`
	City     string `json:"city,omitempty"`
	State    string `json:"state,omitempty"`
	Postcode string `json:"postcode,omitempty"`
	Country  string `json:"country,omitempty"`
	Phone    string `json:"phone,omitempty"`
	Fax      string `json:"fax,omitempty"`
	Email    string `json:"email,omitempty"`
}

// ParsedLine is one labeled line of the record. Field is present only
// on registrant lines, where the second-level CRF applies.
type ParsedLine struct {
	Title string `json:"title,omitempty"`
	Value string `json:"value,omitempty"`
	Block string `json:"block"`
	Field string `json:"field,omitempty"`
}

// ParsedFromRecord shapes a statistical parse as RDAP-flavored JSON.
func ParsedFromRecord(name string, pr *core.ParsedRecord) *ParsedDomain {
	d := &ParsedDomain{
		ObjectClassName: "domain",
		LDHName:         name,
		Source:          "statistical-whois-parse",
		Registrar:       pr.Registrar,
		RegistrarURL:    pr.RegistrarURL,
		Port43:          pr.WhoisServer,
	}
	addEvent := func(action, date string) {
		if date != "" {
			d.Events = append(d.Events, ParsedEvent{EventAction: action, EventDate: date})
		}
	}
	addEvent("registration", pr.CreatedDate)
	addEvent("last changed", pr.UpdatedDate)
	addEvent("expiration", pr.ExpiresDate)

	if c := pr.Registrant; c != (core.Contact{}) {
		d.Registrant = &ParsedContact{
			Name: c.Name, ID: c.ID, Org: c.Org, Street: c.Street,
			City: c.City, State: c.State, Postcode: c.Postcode,
			Country: c.Country, Phone: c.Phone, Fax: c.Fax, Email: c.Email,
		}
	}

	d.Lines = make([]ParsedLine, len(pr.Lines))
	for i, ln := range pr.Lines {
		pl := ParsedLine{Title: ln.Title, Value: ln.Value, Block: pr.Blocks[i].String()}
		if pr.Blocks[i] == labels.Registrant {
			pl.Field = pr.Fields[i].String()
		}
		d.Lines[i] = pl
	}
	return d
}

// appendParsed appends the /parsed/ reply body for a parse of name: the
// exact bytes json.NewEncoder(w).Encode(ParsedFromRecord(name, pr))
// writes, trailing newline included, without reflection or a
// ParsedDomain in between. FuzzParsedBody pins the two byte for byte.
func appendParsed(dst []byte, name string, pr *core.ParsedRecord) []byte {
	dst = append(dst, `{"objectClassName":"domain","ldhName":`...)
	dst = appendJSONString(dst, name)
	dst = append(dst, `,"source":"statistical-whois-parse"`...)
	dst = appendField(dst, true, "registrar", pr.Registrar)
	dst = appendField(dst, true, "registrarUrl", pr.RegistrarURL)
	dst = appendField(dst, true, "port43", pr.WhoisServer)

	events := 0
	for _, ev := range [...]struct{ action, date string }{
		{"registration", pr.CreatedDate},
		{"last changed", pr.UpdatedDate},
		{"expiration", pr.ExpiresDate},
	} {
		if ev.date == "" {
			continue
		}
		if events == 0 {
			dst = append(dst, `,"events":[`...)
		} else {
			dst = append(dst, ',')
		}
		events++
		dst = append(dst, `{"eventAction":"`...)
		dst = append(dst, ev.action...)
		dst = append(dst, `","eventDate":`...)
		dst = appendJSONString(dst, ev.date)
		dst = append(dst, '}')
	}
	if events > 0 {
		dst = append(dst, ']')
	}

	if c := &pr.Registrant; *c != (core.Contact{}) {
		dst = append(dst, `,"registrant":{`...)
		mark := len(dst)
		for _, f := range [...]struct{ key, val string }{
			{"name", c.Name}, {"id", c.ID}, {"org", c.Org}, {"street", c.Street},
			{"city", c.City}, {"state", c.State}, {"postcode", c.Postcode},
			{"country", c.Country}, {"phone", c.Phone}, {"fax", c.Fax}, {"email", c.Email},
		} {
			dst = appendField(dst, len(dst) > mark, f.key, f.val)
		}
		dst = append(dst, '}')
	}

	dst = append(dst, `,"lines":[`...)
	for i, ln := range pr.Lines {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '{')
		mark := len(dst)
		dst = appendField(dst, false, "title", ln.Title)
		dst = appendField(dst, len(dst) > mark, "value", ln.Value)
		if len(dst) > mark {
			dst = append(dst, ',')
		}
		dst = append(dst, `"block":`...)
		dst = appendJSONString(dst, pr.Blocks[i].String())
		if pr.Blocks[i] == labels.Registrant {
			dst = appendField(dst, true, "field", pr.Fields[i].String())
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}\n"...)
}

// appendField appends `"key":"val"`, preceded by a comma when comma is
// set, and nothing at all when val is empty — an omitempty string field.
func appendField(dst []byte, comma bool, key, val string) []byte {
	if val == "" {
		return dst
	}
	if comma {
		dst = append(dst, ',')
	}
	dst = append(dst, '"')
	dst = append(dst, key...)
	dst = append(dst, `":`...)
	return appendJSONString(dst, val)
}

// appendJSONString appends s as a JSON string under encoding/json's
// default, HTML-safe escaping: '"' and '\\' are backslash-escaped; \b, \f,
// \n, \r and \t take their short forms; other control bytes and '<',
// '>' and '&' become \u00XX; each invalid UTF-8 byte becomes \ufffd;
// and U+2028 and U+2029 become \u2028 and \u2029.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
