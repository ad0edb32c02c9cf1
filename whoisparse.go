// Package whoisparse is a statistical WHOIS-record parser: a Go
// reproduction of "Who is .com? Learning to Parse WHOIS Records"
// (Liu, Foster, Savage, Voelker, Saul — IMC 2015).
//
// WHOIS records are human-readable but follow no consistent schema, so
// parsing them at scale with hand-written rules or per-registrar templates
// is fragile. This package instead labels each line of a record with a
// two-level conditional random field trained from labeled examples:
//
//	parser, _, err := whoisparse.Train(labeledRecords, whoisparse.DefaultConfig())
//	...
//	parsed := parser.Parse(rawRecordText)
//	fmt.Println(parsed.Registrant.Name, parsed.Registrant.Country)
//
// The first level segments a record into registrar / domain / date /
// registrant / other-contact / boilerplate blocks; the second level splits
// the registrant block into name, org, street, city, state, postcode,
// country, phone, fax and email. A few hundred labeled records are enough
// for >99% line accuracy, and new formats are absorbed by adding a single
// labeled example and retraining.
//
// Subpackages under internal/ provide everything else the paper's system
// needs: the CRF machinery (internal/crf, internal/optimize), the feature
// pipeline (internal/tokenize), rule-based and template-based baseline
// parsers, an RFC 3912 client/server and rate-limit-aware crawler, a
// synthetic .com ecosystem standing in for the paper's 102M-record crawl,
// and the §5–§6 evaluation and survey harnesses.
package whoisparse

import (
	"io"

	"repro/internal/core"
	"repro/internal/labels"
	"repro/internal/store"
	"repro/internal/synth"
	"repro/internal/tokenize"
)

// Re-exported core types. See the respective internal packages for full
// documentation.
type (
	// Parser is a trained two-level statistical WHOIS parser.
	Parser = core.Parser
	// Config controls feature generation and training.
	Config = core.Config
	// ParsedRecord is the output of Parser.Parse.
	ParsedRecord = core.ParsedRecord
	// Contact holds extracted registrant subfields.
	Contact = core.Contact
	// TrainStats reports optimizer outcomes.
	TrainStats = core.TrainStats

	// LabeledRecord is a WHOIS record with per-line ground-truth labels.
	LabeledRecord = labels.LabeledRecord
	// LabeledLine is one labeled line.
	LabeledLine = labels.LabeledLine
	// Block is a first-level label (registrar, domain, date, registrant,
	// other, null).
	Block = labels.Block
	// Field is a second-level registrant label (name, org, street, ...).
	Field = labels.Field

	// TokenizeOptions selects observation families for feature extraction.
	TokenizeOptions = tokenize.Options
)

// First-level label values.
const (
	BlockRegistrar  = labels.Registrar
	BlockDomain     = labels.Domain
	BlockDate       = labels.Date
	BlockRegistrant = labels.Registrant
	BlockOther      = labels.Other
	BlockNull       = labels.Null
)

// DefaultConfig returns the training configuration used in the paper
// reproduction experiments.
func DefaultConfig() Config { return core.DefaultConfig() }

// Train fits a two-level parser from labeled records.
func Train(records []*LabeledRecord, cfg Config) (*Parser, TrainStats, error) {
	return core.Train(records, cfg)
}

// Retrain fits a parser on records, warm-starting from prev where the
// feature spaces overlap — the fast path for the paper's §5.3 workflow of
// absorbing a new record format by adding a handful of labeled examples.
func Retrain(prev *Parser, records []*LabeledRecord, cfg Config) (*Parser, TrainStats, error) {
	return core.Retrain(prev, records, cfg)
}

// Save writes a trained parser to path as a versioned model artifact
// (magic header, format version, feature dimensions, and a payload
// checksum; see internal/store). The write is atomic: a temp file is
// fsynced and renamed into place.
func Save(p *Parser, path string) error {
	_, err := store.SaveModel(p, path)
	return err
}

// Load reads a parser written by Save, verifying the artifact (magic,
// version, checksum, dimensions) before deserializing. A file that is
// not a model artifact — a bare parser gob included — fails with
// store.ErrNotModel.
func Load(path string) (*Parser, error) {
	p, _, err := store.LoadModel(path)
	return p, err
}

// ReadParser is Load over a stream: a model artifact as Save writes it.
func ReadParser(r io.Reader) (*Parser, error) {
	p, _, err := store.ReadModel(r)
	return p, err
}

// ReadLabeled parses labeled records from the sectioned text format.
func ReadLabeled(r io.Reader) ([]*LabeledRecord, error) { return labels.ReadRecords(r) }

// WriteLabeled serializes labeled records in the sectioned text format.
func WriteLabeled(w io.Writer, records []*LabeledRecord) error {
	return labels.WriteRecords(w, records)
}

// CorpusConfig re-exports the synthetic-corpus generator configuration.
type CorpusConfig = synth.Config

// GenerateCorpus produces a labeled synthetic .com corpus. It stands in
// for the paper's crawled ground-truth data; see DESIGN.md for the
// substitution rationale.
func GenerateCorpus(cfg CorpusConfig) []*LabeledRecord {
	return synth.GenerateLabeled(cfg)
}
