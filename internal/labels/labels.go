// Package labels defines the two label spaces of the paper's two-level
// parsing strategy (§3.2) and a plain-text format for labeled WHOIS
// records used as training and evaluation data.
package labels

import (
	"fmt"
	"strings"
)

// Block is a first-level label: the kind of information a line of a thick
// WHOIS record carries.
type Block int

// The six first-level states of §3.2.
const (
	Registrar  Block = iota // registrar name, URL, ID, whois server
	Domain                  // domain name, name servers, status
	Date                    // creation / expiration / update dates
	Registrant              // the registrant contact block
	Other                   // admin / billing / tech contacts
	Null                    // boilerplate and legalese
)

// NumBlocks is the size of the first-level state space.
const NumBlocks = 6

var blockNames = [NumBlocks]string{"registrar", "domain", "date", "registrant", "other", "null"}

// String returns the canonical lower-case name of the block label.
func (b Block) String() string {
	if b < 0 || int(b) >= NumBlocks {
		return fmt.Sprintf("Block(%d)", int(b))
	}
	return blockNames[b]
}

// ParseBlock converts a canonical name back into a Block.
func ParseBlock(s string) (Block, error) {
	for i, n := range blockNames {
		if n == s {
			return Block(i), nil
		}
	}
	return 0, fmt.Errorf("labels: unknown block label %q", s)
}

// AllBlocks lists every first-level label in state order.
func AllBlocks() []Block {
	out := make([]Block, NumBlocks)
	for i := range out {
		out[i] = Block(i)
	}
	return out
}

// BlockNames lists the canonical names in state order.
func BlockNames() []string {
	out := make([]string, NumBlocks)
	copy(out, blockNames[:])
	return out
}

// Field is a second-level label: a subfield of the registrant block.
type Field int

// The twelve second-level states of §3.2.
const (
	FieldName Field = iota
	FieldID
	FieldOrg
	FieldStreet
	FieldCity
	FieldState
	FieldPostcode
	FieldCountry
	FieldPhone
	FieldFax
	FieldEmail
	FieldOther
)

// NumFields is the size of the second-level state space.
const NumFields = 12

var fieldNames = [NumFields]string{
	"name", "id", "org", "street", "city", "state",
	"postcode", "country", "phone", "fax", "email", "other",
}

// String returns the canonical lower-case name of the field label.
func (f Field) String() string {
	if f < 0 || int(f) >= NumFields {
		return fmt.Sprintf("Field(%d)", int(f))
	}
	return fieldNames[f]
}

// ParseField converts a canonical name back into a Field.
func ParseField(s string) (Field, error) {
	for i, n := range fieldNames {
		if n == s {
			return Field(i), nil
		}
	}
	return 0, fmt.Errorf("labels: unknown field label %q", s)
}

// LabeledLine pairs one retained line of text with its ground-truth labels.
// Field is only meaningful when Block == Registrant (and is FieldOther
// otherwise).
type LabeledLine struct {
	Text  string
	Block Block
	Field Field
}

// LabeledRecord is a fully labeled thick WHOIS record: the raw text plus
// one LabeledLine per retained (non-empty, alphanumeric) line, in order.
type LabeledRecord struct {
	// Domain is the registered domain name the record describes.
	Domain string
	// TLD is the top-level domain (e.g. "com").
	TLD string
	// Registrar identifies the registrar whose template produced the text.
	Registrar string
	// Text is the full record as served over the wire.
	Text string
	// Lines holds the ground truth for each retained line of Text.
	Lines []LabeledLine
}

// Validate checks internal consistency: every label in range and line text
// non-empty.
func (r *LabeledRecord) Validate() error {
	if r.Domain == "" {
		return fmt.Errorf("labels: record has empty domain")
	}
	for i, ln := range r.Lines {
		if ln.Block < 0 || int(ln.Block) >= NumBlocks {
			return fmt.Errorf("labels: %s line %d: block label out of range", r.Domain, i)
		}
		if ln.Field < 0 || int(ln.Field) >= NumFields {
			return fmt.Errorf("labels: %s line %d: field label out of range", r.Domain, i)
		}
		if strings.TrimSpace(ln.Text) == "" {
			return fmt.Errorf("labels: %s line %d: empty text", r.Domain, i)
		}
	}
	return nil
}
