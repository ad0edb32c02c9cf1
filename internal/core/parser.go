// Package core implements the paper's primary contribution: a two-level
// statistical WHOIS parser (§3). A first-level CRF segments a thick WHOIS
// record into six kinds of blocks (registrar, domain, date, registrant,
// other, null); a second-level CRF re-parses the registrant block into
// twelve subfields (name, id, org, street, city, state, postcode, country,
// phone, fax, email, other). Both levels share the feature pipeline in
// internal/tokenize and the CRF machinery in internal/crf.
package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/crf"
	"repro/internal/labels"
	"repro/internal/obs"
	"repro/internal/optimize"
	"repro/internal/tokenize"
)

// Config controls feature generation and training for both CRF levels.
type Config struct {
	// Tokenize selects which observation families are emitted.
	Tokenize tokenize.Options
	// MinCount trims dictionary observations seen fewer times (§3.3:
	// "we trim words that appear very infrequently").
	MinCount int
	// TransMinCount gates which observations carry transition features;
	// <= 0 means all of them.
	TransMinCount int
	// L2 is the regularization strength for both CRFs.
	L2 float64
	// Train selects the optimizer.
	Train crf.TrainConfig
}

// DefaultConfig returns the settings used for the paper-scale experiments.
func DefaultConfig() Config {
	return Config{
		MinCount:      2,
		TransMinCount: 1,
		L2:            1.0,
	}
}

// Parser is a trained two-level statistical WHOIS parser.
type Parser struct {
	cfg   Config
	block *crf.Model // first level: 6 states
	field *crf.Model // second level: 12 states
	met   *parserMetrics
}

// parserMetrics are the parse-path observability handles (see
// Instrument). Nil on uninstrumented parsers — the common test path —
// so the hot path pays one nil check.
type parserMetrics struct {
	reg           *obs.Registry
	parseSeconds  *obs.Histogram
	parses        *obs.Counter
	lines         *obs.Counter
	confidenceMin *obs.Histogram
}

// Instrument wires the parser and both CRF levels into reg:
// core.parse.seconds / core.parse.calls / core.parse.lines for the full
// two-level parse, crf.block.* and crf.field.* for per-level decode
// latency and token throughput, and core.confidence.min for the
// distribution of per-record minimum posterior confidence (the §5.3
// triage signal). Call before the parser is shared across goroutines.
// Instrumenting again into the registry the parser already reports to
// writes nothing, so that call is safe on a shared parser.
func (p *Parser) Instrument(reg *obs.Registry) {
	if p.met != nil && p.met.reg == reg {
		return
	}
	p.met = &parserMetrics{
		reg:           reg,
		parseSeconds:  reg.Histogram("core.parse.seconds", obs.DurationBounds()),
		parses:        reg.Counter("core.parse.calls"),
		lines:         reg.Counter("core.parse.lines"),
		confidenceMin: reg.Histogram("core.confidence.min", obs.UnitBounds()),
	}
	p.block.Instrument(reg, "crf.block")
	if p.field != nil {
		p.field.Instrument(reg, "crf.field")
	}
}

// TrainStats reports optimizer outcomes for both levels.
type TrainStats struct {
	Block optimize.Result
	Field optimize.Result
	// BlockFeatures and FieldFeatures are the feature-space sizes, for
	// comparison with the paper's "nearly 1M" / "nearly 400K".
	BlockFeatures int
	FieldFeatures int
}

// Train fits both CRF levels from labeled records.
func Train(records []*labels.LabeledRecord, cfg Config) (*Parser, TrainStats, error) {
	return train(records, cfg, nil, nil)
}

// train is the shared implementation behind Train and Retrain; warmBlock
// and warmField, when non-nil, seed the respective models' weights.
func train(records []*labels.LabeledRecord, cfg Config, warmBlock, warmField *crf.Model) (*Parser, TrainStats, error) {
	var stats TrainStats
	if len(records) == 0 {
		return nil, stats, fmt.Errorf("core: no training records")
	}
	if cfg.MinCount == 0 {
		cfg.MinCount = 1
	}

	// Tokenize every record once; verify label/line alignment.
	tokenized := make([][]tokenize.Line, len(records))
	for i, rec := range records {
		lines := tokenize.Tokenize(rec.Text, cfg.Tokenize)
		if len(lines) != len(rec.Lines) {
			return nil, stats, fmt.Errorf("core: record %s: %d retained lines but %d labels",
				rec.Domain, len(lines), len(rec.Lines))
		}
		tokenized[i] = lines
	}

	// ---- First level ----
	blockDict := tokenize.BuildDictionary(tokenized, cfg.MinCount)
	blockModel := crf.New(blockDict, crf.Config{
		NumStates:     labels.NumBlocks,
		TransMinCount: cfg.TransMinCount,
		L2:            cfg.L2,
	})
	blockModel.WarmStartFrom(warmBlock)
	blockInsts := make([]crf.Instance, len(records))
	for i, rec := range records {
		inst := blockModel.MapLines(tokenized[i])
		inst.Labels = make([]int, len(rec.Lines))
		for t, ln := range rec.Lines {
			inst.Labels[t] = int(ln.Block)
		}
		blockInsts[i] = inst
	}
	res, err := blockModel.Train(blockInsts, cfg.Train)
	if err != nil {
		return nil, stats, fmt.Errorf("core: train first-level CRF: %w", err)
	}
	stats.Block = res
	stats.BlockFeatures = blockModel.NumFeatures()

	// ---- Second level: registrant sub-sequences ----
	var fieldSeqs [][]tokenize.Line
	var fieldLabelSeqs [][]int
	for i, rec := range records {
		var seq []tokenize.Line
		var lab []int
		for t, ln := range rec.Lines {
			if ln.Block != labels.Registrant {
				continue
			}
			seq = append(seq, tokenized[i][t])
			lab = append(lab, int(ln.Field))
		}
		if len(seq) > 0 {
			fieldSeqs = append(fieldSeqs, seq)
			fieldLabelSeqs = append(fieldLabelSeqs, lab)
		}
	}
	p := &Parser{cfg: cfg, block: blockModel}
	if len(fieldSeqs) > 0 {
		fieldDict := tokenize.BuildDictionary(fieldSeqs, cfg.MinCount)
		fieldModel := crf.New(fieldDict, crf.Config{
			NumStates:     labels.NumFields,
			TransMinCount: cfg.TransMinCount,
			L2:            cfg.L2,
		})
		fieldModel.WarmStartFrom(warmField)
		fieldInsts := make([]crf.Instance, len(fieldSeqs))
		for i, seq := range fieldSeqs {
			inst := fieldModel.MapLines(seq)
			inst.Labels = fieldLabelSeqs[i]
			fieldInsts[i] = inst
		}
		res, err := fieldModel.Train(fieldInsts, cfg.Train)
		if err != nil {
			return nil, stats, fmt.Errorf("core: train second-level CRF: %w", err)
		}
		stats.Field = res
		stats.FieldFeatures = fieldModel.NumFeatures()
		p.field = fieldModel
	}
	return p, stats, nil
}

// Retrain fits a fresh parser on records, warm-starting both CRF levels
// from prev's weights where features overlap. This is the §5.3 adaptation
// workflow: add a handful of labeled examples for a new format and
// retrain; warm-starting cuts the optimizer iterations substantially
// because only the new format's features start cold.
func Retrain(prev *Parser, records []*labels.LabeledRecord, cfg Config) (*Parser, TrainStats, error) {
	return trainWithWarmStart(prev, records, cfg)
}

// trainWithWarmStart is Train with an optional previous parser whose
// weights seed the optimizers.
func trainWithWarmStart(prev *Parser, records []*labels.LabeledRecord, cfg Config) (*Parser, TrainStats, error) {
	// Reuse Train's construction path by injecting warm-start inside the
	// model builders; the simplest faithful implementation rebuilds the
	// models and copies overlapping weights before optimizing.
	warmBlock := (*crf.Model)(nil)
	warmField := (*crf.Model)(nil)
	if prev != nil {
		warmBlock = prev.block
		warmField = prev.field
	}
	return train(records, cfg, warmBlock, warmField)
}

// BlockModel exposes the first-level CRF for introspection (Table 1,
// Figure 1).
func (p *Parser) BlockModel() *crf.Model { return p.block }

// FieldModel exposes the second-level CRF; nil if no registrant blocks
// appeared in training.
func (p *Parser) FieldModel() *crf.Model { return p.field }

// Config returns the configuration the parser was trained with.
func (p *Parser) Config() Config { return p.cfg }

// ParseBlocks tokenizes text and runs first-level decoding only.
func (p *Parser) ParseBlocks(text string) ([]tokenize.Line, []labels.Block) {
	lines := tokenize.Tokenize(text, p.cfg.Tokenize)
	inst := p.block.MapLines(lines)
	path, _ := p.block.Decode(inst)
	blocks := make([]labels.Block, len(path))
	for i, y := range path {
		blocks[i] = labels.Block(y)
	}
	return lines, blocks
}

// ParseFields runs second-level decoding over the lines whose predicted
// block is Registrant, returning one field label per line (FieldOther for
// non-registrant lines).
func (p *Parser) ParseFields(lines []tokenize.Line, blocks []labels.Block) []labels.Field {
	fields := make([]labels.Field, len(lines))
	for i := range fields {
		fields[i] = labels.FieldOther
	}
	if p.field == nil {
		return fields
	}
	var idx []int
	var seq []tokenize.Line
	for i, b := range blocks {
		if b == labels.Registrant {
			idx = append(idx, i)
			seq = append(seq, lines[i])
		}
	}
	if len(seq) == 0 {
		return fields
	}
	inst := p.field.MapLines(seq)
	path, _ := p.field.Decode(inst)
	for k, i := range idx {
		fields[i] = labels.Field(path[k])
	}
	return fields
}

// Contact holds the extracted registrant subfields. Multi-line fields
// (street) are joined with ", ".
type Contact struct {
	Name     string
	ID       string
	Org      string
	Street   string
	City     string
	State    string
	Postcode string
	Country  string
	Phone    string
	Fax      string
	Email    string
}

// ParsedRecord is the full output of the two-level parse.
//
// Instances handed out by a shared result cache (internal/serve) are
// shared across callers and must be treated as immutable; use Clone to
// obtain a caller-owned copy before mutating.
type ParsedRecord struct {
	// Lines are the retained lines in order; Blocks and Fields run
	// parallel to them. Fields[i] is meaningful only when Blocks[i] is
	// labels.Registrant. Each line carries Raw, Title, Value and HasSep;
	// its Obs is nil on records from Parse, ParseWithConfidence and the
	// L0 template path, which never build observation strings. Callers
	// that need the observations get them from ParseBlocks, or from
	// Tokenize in package tokenize.
	Lines  []tokenize.Line
	Blocks []labels.Block
	Fields []labels.Field

	// Registrant carries the extracted second-level subfields.
	Registrant Contact

	// Registrar is the registrar name extracted from the registrar block,
	// CreatedDate / UpdatedDate / ExpiresDate the date block values,
	// DomainName the domain block value, WhoisServer a referral if any.
	Registrar    string
	RegistrarURL string
	DomainName   string
	WhoisServer  string
	CreatedDate  string
	UpdatedDate  string
	ExpiresDate  string

	// NameServers and Statuses collect the delegation and EPP status
	// lines of the domain block, verbatim and in record order. The
	// cross-protocol consistency engine compares them against the RDAP
	// nameservers/status arrays; unlike the scalar fields above they are
	// naturally multi-valued, so every matching line is kept.
	NameServers []string
	Statuses    []string

	// ModelVersion identifies the model that produced this record, when a
	// lifecycle layer stamps it (internal/lifecycle; "" otherwise). WHOIS
	// formats drift and models are retrained while serving (§5.1), so a
	// parse is only interpretable alongside the model version that made
	// it — drift analysis segments on this field.
	ModelVersion string

	// Tier records which serving tier produced this record when a tiered
	// router (internal/tiered) stamps it: TierTemplate for the L0
	// compiled-template fast path, TierCRF for the full lattice parse.
	// Empty on untiered parses. Like ModelVersion, it is provenance: a
	// record is only auditable alongside the mechanism that produced it.
	Tier string
}

// Tier values stamped into ParsedRecord.Tier by a tiered router.
const (
	// TierTemplate marks a record parsed by the L0 template fast path —
	// exact per-registrar line matching, no lattice.
	TierTemplate = "l0"
	// TierCRF marks a record parsed by the L1 statistical parser (this
	// package's two-level CRF).
	TierCRF = "l1"
)

// Parse runs both levels on raw record text and extracts fields. It is
// the fused path: the record is scanned once into pooled buffers and its
// observations go straight to dictionary ids, so no observation string
// is built and the returned Lines carry no Obs. ParseBlocks and
// ParseFields are the string-building reference it is held to.
func (p *Parser) Parse(text string) *ParsedRecord {
	out, _ := p.parse(text, false)
	return out
}

// parseScratch is the working set of one fused parse: the line scan, the
// flat id buffer both CRF levels map into, the per-position views over
// it, and the registrant line indices. Pooled, so a steady-state parse
// allocates only what the returned record owns.
type parseScratch struct {
	scan tokenize.Scan
	ids  []int
	ends []int
	obs  [][]int
	reg  []int
}

var parseScratchPool = sync.Pool{New: func() any { return new(parseScratch) }}

// instance maps the scanned lines listed in idx (every line when idx is
// nil) through d into an Instance over the scratch buffers, valid until
// the next call.
func (ps *parseScratch) instance(d *tokenize.Dictionary, idx []int) crf.Instance {
	n := len(idx)
	if idx == nil {
		n = len(ps.scan.Lines)
	}
	ps.ids, ps.ends = ps.ids[:0], ps.ends[:0]
	for k := 0; k < n; k++ {
		i := k
		if idx != nil {
			i = idx[k]
		}
		ps.ids = d.AppendIDs(ps.ids, &ps.scan, i)
		ps.ends = append(ps.ends, len(ps.ids))
	}
	ps.obs = ps.obs[:0]
	start := 0
	for _, end := range ps.ends {
		ps.obs = append(ps.obs, ps.ids[start:end:end])
		start = end
	}
	return crf.Instance{Obs: ps.obs}
}

// parse is the fused two-level parse behind Parse and
// ParseWithConfidence: scan, map block ids, decode, then map only the
// registrant lines through the field dictionary and decode. With conf
// the first level runs crf.Posterior and the second result is the
// weakest line's posterior; otherwise it is 1.
func (p *Parser) parse(text string, conf bool) (*ParsedRecord, float64) {
	var start time.Time
	if p.met != nil {
		start = time.Now()
	}
	ps := parseScratchPool.Get().(*parseScratch)
	defer parseScratchPool.Put(ps)
	ps.scan.Reset(text, p.cfg.Tokenize)
	n := len(ps.scan.Lines)
	out := &ParsedRecord{
		Lines:  make([]tokenize.Line, n),
		Blocks: make([]labels.Block, n),
		Fields: make([]labels.Field, n),
	}
	copy(out.Lines, ps.scan.Lines)
	min := 1.0
	if n > 0 {
		inst := ps.instance(p.block.Dict(), nil)
		if conf {
			post := p.block.Posterior(inst)
			for i, y := range post.Path {
				out.Blocks[i] = labels.Block(y)
				if prob := post.Marginals[i][y]; prob < min {
					min = prob
				}
			}
		} else {
			path, _ := p.block.Decode(inst)
			for i, y := range path {
				out.Blocks[i] = labels.Block(y)
			}
		}
	}
	ps.reg = ps.reg[:0]
	for i, b := range out.Blocks {
		out.Fields[i] = labels.FieldOther
		if b == labels.Registrant {
			ps.reg = append(ps.reg, i)
		}
	}
	if p.field != nil && len(ps.reg) > 0 {
		path, _ := p.field.Decode(ps.instance(p.field.Dict(), ps.reg))
		for k, i := range ps.reg {
			out.Fields[i] = labels.Field(path[k])
		}
	}
	extract(out)
	if p.met != nil {
		p.met.parseSeconds.ObserveSince(start)
		p.met.parses.Inc()
		p.met.lines.Add(uint64(n))
		if conf {
			p.met.confidenceMin.Observe(min)
		}
	}
	return out, min
}

// ParseAll parses texts concurrently across the given number of worker
// goroutines (GOMAXPROCS when workers <= 0). Decoding is read-only on the
// model, so the parser is safe to share. Results align with texts by
// index — the bulk path for the §6 survey over millions of records.
func (p *Parser) ParseAll(texts []string, workers int) []*ParsedRecord {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(texts) {
		workers = len(texts)
	}
	out := make([]*ParsedRecord, len(texts))
	if len(texts) == 0 {
		return out
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out[i] = p.Parse(texts[i])
			}
		}()
	}
	for i := range texts {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

// ExtractFields (re)derives the scalar summary fields — Registrant
// contact, Registrar/URL/WhoisServer, DomainName, and the three dates —
// from Lines, Blocks, and Fields. Parse and ParseWithConfidence call it
// implicitly; it is exported for alternate line-label producers (the L0
// template fast path in internal/tiered) that fill Lines/Blocks/Fields
// without running the CRFs and need the same extraction semantics.
func (pr *ParsedRecord) ExtractFields() { extract(pr) }

func extract(out *ParsedRecord) {
	setFirst := func(dst *string, v string) {
		if *dst == "" && v != "" {
			*dst = v
		}
	}
	for i, ln := range out.Lines {
		val := ln.Value
		switch out.Blocks[i] {
		case labels.Registrant:
			switch out.Fields[i] {
			case labels.FieldName:
				setFirst(&out.Registrant.Name, val)
			case labels.FieldID:
				setFirst(&out.Registrant.ID, val)
			case labels.FieldOrg:
				setFirst(&out.Registrant.Org, val)
			case labels.FieldStreet:
				if out.Registrant.Street == "" {
					out.Registrant.Street = val
				} else if val != "" {
					out.Registrant.Street += ", " + val
				}
			case labels.FieldCity:
				setFirst(&out.Registrant.City, val)
			case labels.FieldState:
				setFirst(&out.Registrant.State, val)
			case labels.FieldPostcode:
				setFirst(&out.Registrant.Postcode, val)
			case labels.FieldCountry:
				setFirst(&out.Registrant.Country, val)
			case labels.FieldPhone:
				setFirst(&out.Registrant.Phone, val)
			case labels.FieldFax:
				setFirst(&out.Registrant.Fax, val)
			case labels.FieldEmail:
				setFirst(&out.Registrant.Email, val)
			}
		case labels.Registrar:
			title := ln.Title
			switch {
			case containsFold(title, "whois"):
				setFirst(&out.WhoisServer, val)
			case containsFold(title, "url"), containsFold(title, "website"),
				containsFold(title, "www"):
				setFirst(&out.RegistrarURL, val)
			case containsFold(title, "iana"), containsFold(title, "abuse"):
				// Registrar metadata we do not surface as the name.
			case containsFold(title, "registrar"), containsFold(title, "sponsor"),
				containsFold(title, "registered"), containsFold(title, "maintained"),
				containsFold(title, "reseller"), containsFold(title, "provided"):
				setFirst(&out.Registrar, val)
			}
		case labels.Domain:
			title := ln.Title
			// Multi-valued lines first: "Domain Name Servers" and "Domain
			// Status" titles contain "domain" and must not be mistaken for
			// the domain-name line.
			switch {
			case val != "" && !containsFold(title, "whois") && !containsFold(title, "dnssec") &&
				(containsFold(title, "name server") || containsFold(title, "nameserver") ||
					containsFold(title, "nserver") || containsFold(title, "dns")):
				// "dnssec" is excluded: a "DNSSEC: unsigned" title contains
				// "dns" but its value is a signing state, not a host.
				out.NameServers = append(out.NameServers, val)
			case val != "" && containsFold(title, "status"):
				out.Statuses = append(out.Statuses, val)
			case containsFold(title, "domain") && strings.Contains(val, "."):
				if out.DomainName == "" && val != "" {
					out.DomainName = strings.ToLower(val)
				}
			}
		case labels.Date:
			if !containsYear(val) {
				break // a date field whose value has no year is noise
			}
			title := ln.Title
			switch {
			case containsFold(title, "creat"), containsFold(title, "registered"),
				containsFold(title, "registration"), containsFold(title, "active"):
				setFirst(&out.CreatedDate, val)
			case containsFold(title, "updat"), containsFold(title, "modif"), containsFold(title, "changed"):
				setFirst(&out.UpdatedDate, val)
			case containsFold(title, "expir"), containsFold(title, "renew"),
				containsFold(title, "paid"), containsFold(title, "valid"):
				setFirst(&out.ExpiresDate, val)
			}
		}
	}
}

// containsFold reports whether s contains pat under ASCII case folding.
// pat must already be lowercase. Titles are matched on every parse —
// including the L0 template fast path with its tens-of-allocs budget —
// so this replaces the strings.ToLower(title) copies the loop above used
// to make. WHOIS titles are ASCII in practice; a non-ASCII uppercase
// title simply fails to match, as it also failed the keyword lists here.
func containsFold(s, pat string) bool {
	if len(pat) > len(s) {
		return false
	}
scan:
	for i := 0; i+len(pat) <= len(s); i++ {
		for j := 0; j < len(pat); j++ {
			c := s[i+j]
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c != pat[j] {
				continue scan
			}
		}
		return true
	}
	return false
}

// cfgDTO is the persisted subset of Config: only the fields that affect
// parsing (not training) survive serialization. In particular the
// optimizer callbacks in Config.Train are funcs gob cannot encode.
type cfgDTO struct {
	Tokenize      tokenize.Options
	MinCount      int
	TransMinCount int
	L2            float64
}

// containsYear reports whether a value carries a plausible 4-digit year,
// the minimal evidence that a "date" line actually holds a date.
func containsYear(s string) bool {
	for i := 0; i+4 <= len(s); i++ {
		if s[i] >= '1' && s[i] <= '2' &&
			isDigitByte(s[i+1]) && isDigitByte(s[i+2]) && isDigitByte(s[i+3]) {
			y := int(s[i]-'0')*1000 + int(s[i+1]-'0')*100 + int(s[i+2]-'0')*10 + int(s[i+3]-'0')
			if y >= 1980 && y <= 2100 {
				return true
			}
		}
	}
	return false
}

func isDigitByte(b byte) bool { return b >= '0' && b <= '9' }

// parserDTO serializes a Parser.
type parserDTO struct {
	Cfg        cfgDTO
	BlockBytes []byte
	FieldBytes []byte
}

// WriteTo serializes the parser (both CRF levels plus configuration).
func (p *Parser) WriteTo(w io.Writer) (int64, error) {
	var dto parserDTO
	dto.Cfg = cfgDTO{
		Tokenize:      p.cfg.Tokenize,
		MinCount:      p.cfg.MinCount,
		TransMinCount: p.cfg.TransMinCount,
		L2:            p.cfg.L2,
	}
	var bb strings.Builder
	if _, err := p.block.WriteTo(&bb); err != nil {
		return 0, fmt.Errorf("core: serialize block model: %w", err)
	}
	dto.BlockBytes = []byte(bb.String())
	if p.field != nil {
		var fb strings.Builder
		if _, err := p.field.WriteTo(&fb); err != nil {
			return 0, fmt.Errorf("core: serialize field model: %w", err)
		}
		dto.FieldBytes = []byte(fb.String())
	}
	cw := &countWriter{w: w}
	if err := gob.NewEncoder(cw).Encode(dto); err != nil {
		return cw.n, fmt.Errorf("core: encode parser: %w", err)
	}
	return cw.n, nil
}

// Read deserializes a parser written by WriteTo.
func Read(r io.Reader) (*Parser, error) {
	var dto parserDTO
	if err := gob.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("core: decode parser: %w", err)
	}
	block, err := crf.Read(strings.NewReader(string(dto.BlockBytes)))
	if err != nil {
		return nil, fmt.Errorf("core: read block model: %w", err)
	}
	cfg := Config{
		Tokenize:      dto.Cfg.Tokenize,
		MinCount:      dto.Cfg.MinCount,
		TransMinCount: dto.Cfg.TransMinCount,
		L2:            dto.Cfg.L2,
	}
	p := &Parser{cfg: cfg, block: block}
	if len(dto.FieldBytes) > 0 {
		field, err := crf.Read(strings.NewReader(string(dto.FieldBytes)))
		if err != nil {
			return nil, fmt.Errorf("core: read field model: %w", err)
		}
		p.field = field
	}
	return p, nil
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(b []byte) (int, error) {
	n, err := c.w.Write(b)
	c.n += int64(n)
	return n, err
}
