package experiments

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/labels"
	"repro/internal/rulebased"
	"repro/internal/synth"
	"repro/internal/templatebased"
	"repro/internal/tokenize"
)

// Sec23Result carries the §2.3 baseline characterization numbers.
type Sec23Result struct {
	// DeftCoverage / RubyCoverage are template coverage fractions for the
	// large and small template sets (paper: 94% and 63%).
	DeftCoverage float64
	RubyCoverage float64
	// DriftSuccess is the fraction of *covered* records the large template
	// set still parses after four months of format drift (paper: the
	// parser "fail[s] on the vast majority").
	DriftSuccess float64
	// FreshSuccess is the same fraction without drift (sanity ceiling).
	FreshSuccess float64
	// GenericRuleRegistrant is the fraction of records whose registrant
	// line a generic rule-based parser identifies (pythonwhois: 59%).
	GenericRuleRegistrant float64
}

// templateSubset returns the records of the registrars that cover at most
// `frac` of the corpus by volume (most popular first) — modeling a
// template library that was written for the big registrars.
func templateSubset(recs []*labels.LabeledRecord, frac float64) []*labels.LabeledRecord {
	counts := make(map[string]int)
	for _, r := range recs {
		counts[r.Registrar]++
	}
	type kv struct {
		k string
		v int
	}
	var all []kv
	for k, v := range counts {
		all = append(all, kv{k, v})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].v != all[j].v {
			return all[i].v > all[j].v
		}
		return all[i].k < all[j].k
	})
	keep := make(map[string]bool)
	cum := 0
	for _, e := range all {
		if float64(cum)/float64(len(recs)) >= frac {
			break
		}
		keep[e.k] = true
		cum += e.v
	}
	var out []*labels.LabeledRecord
	for _, r := range recs {
		if keep[r.Registrar] {
			out = append(out, r)
		}
	}
	return out
}

// Sec23 reproduces the baseline characterization of §2.3: template
// coverage, template fragility under format drift, and the registrant
// identification rate of a generic rule-based parser.
func Sec23(o Options) (Sec23Result, string, error) {
	o = o.Defaults()
	var res Sec23Result

	// Snapshot at template-authoring time (no drift).
	snapshot := synth.GenerateLabeled(synth.Config{N: o.CorpusSize, Seed: o.Seed + 40})
	deft := templatebased.Compile(templateSubset(snapshot, 0.94), tokenize.Options{})
	ruby := templatebased.Compile(templateSubset(snapshot, 0.63), tokenize.Options{})

	// Fresh test data, then the same distribution four months later with
	// format drift (the paper observed one large registrar change its
	// schema during the measurement).
	fresh := synth.GenerateLabeled(synth.Config{N: o.CorpusSize, Seed: o.Seed + 41})
	drifted := synth.GenerateLabeled(synth.Config{N: o.CorpusSize, Seed: o.Seed + 42, DriftFraction: 0.7})

	coverage := func(c *templatebased.Compiled, recs []*labels.LabeledRecord) float64 {
		n := 0
		for _, r := range recs {
			if c.HasTemplate(r.Registrar) {
				n++
			}
		}
		return float64(n) / float64(len(recs))
	}
	res.DeftCoverage = coverage(deft, fresh)
	res.RubyCoverage = coverage(ruby, fresh)

	success := func(c *templatebased.Compiled, recs []*labels.LabeledRecord) float64 {
		covered, ok := 0, 0
		for _, r := range recs {
			if !c.HasTemplate(r.Registrar) {
				continue
			}
			covered++
			if _, err := c.MatchRegistrar(r.Registrar, r.Text); err == nil {
				ok++
			} else if !errors.Is(err, templatebased.ErrMismatch) {
				return -1
			}
		}
		if covered == 0 {
			return 0
		}
		return float64(ok) / float64(covered)
	}
	res.FreshSuccess = success(deft, fresh)
	res.DriftSuccess = success(deft, drifted)

	// pythonwhois-style generic rule parser: built with no training data,
	// it has only the hand-written generic rules.
	generic := rulebased.Build(nil, tokenize.Options{})
	found, total := 0, 0
	for _, r := range fresh {
		nameLine := -1
		for i, ln := range r.Lines {
			if ln.Block == labels.Registrant && ln.Field == labels.FieldName {
				nameLine = i
				break
			}
		}
		if nameLine < 0 {
			continue
		}
		total++
		_, blocks := generic.ParseBlocks(r.Text)
		if blocks[nameLine] == labels.Registrant {
			found++
		}
	}
	if total > 0 {
		res.GenericRuleRegistrant = float64(found) / float64(total)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "template coverage (share of test records whose registrar has a template):\n")
	fmt.Fprintf(&b, "  large template set (deft-whois-like): %5.1f%%   (paper: 94%%)\n", 100*res.DeftCoverage)
	fmt.Fprintf(&b, "  small template set (ruby-whois-like): %5.1f%%   (paper: 63%%)\n\n", 100*res.RubyCoverage)
	fmt.Fprintf(&b, "template success on covered records:\n")
	fmt.Fprintf(&b, "  at template-authoring time:          %5.1f%%\n", 100*res.FreshSuccess)
	fmt.Fprintf(&b, "  after four months of format drift:   %5.1f%%   (paper: fails on the vast majority)\n\n", 100*res.DriftSuccess)
	fmt.Fprintf(&b, "generic rule-based registrant identification: %5.1f%%   (pythonwhois: 59%%)\n", 100*res.GenericRuleRegistrant)
	return res, section("§2.3 — existing approaches: coverage and fragility", b.String()), nil
}
