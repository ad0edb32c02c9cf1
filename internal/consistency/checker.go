package consistency

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/rdap"
)

// Checker obtains one domain through both protocol paths and compares
// the answers. The fetch and parse steps are injectable functions so the
// checker runs identically against the simulated cluster, live servers,
// or canned fixtures in tests.
type Checker struct {
	// FetchWHOIS returns the best WHOIS record text for a domain —
	// typically (*whoisclient.Client).LookupText against a registry
	// server. Required.
	FetchWHOIS func(ctx context.Context, domain string) (string, error)
	// FetchRDAP returns the domain's RDAP object — typically
	// (*rdap.Client).Lookup. Required.
	FetchRDAP func(ctx context.Context, domain string) (*rdap.Domain, error)
	// Parse turns WHOIS text into a parsed record — typically
	// (*core.Parser).Parse or a tiered router's parse. Required.
	Parse func(text string) *core.ParsedRecord
}

// Result is one domain's full cross-protocol check: both projected
// views, the raw WHOIS text they came from, and the field comparison.
type Result struct {
	Domain     string     `json:"domain"`
	WHOISText  string     `json:"-"`
	WHOIS      FieldView  `json:"whois"`
	RDAP       FieldView  `json:"rdap"`
	Comparison Comparison `json:"comparison"`
}

// Check fetches the domain over both protocols, parses the WHOIS side,
// and compares. An error on either fetch fails the whole check — a
// missing protocol answer is an availability problem, not a consistency
// verdict.
func (c *Checker) Check(ctx context.Context, domain string) (*Result, error) {
	if c.FetchWHOIS == nil || c.FetchRDAP == nil || c.Parse == nil {
		return nil, fmt.Errorf("consistency: checker needs FetchWHOIS, FetchRDAP, and Parse")
	}
	text, err := c.FetchWHOIS(ctx, domain)
	if err != nil {
		return nil, fmt.Errorf("consistency: whois %s: %w", domain, err)
	}
	d, err := c.FetchRDAP(ctx, domain)
	if err != nil {
		return nil, fmt.Errorf("consistency: rdap %s: %w", domain, err)
	}
	pr := c.Parse(text)
	res := &Result{
		Domain:    domain,
		WHOISText: text,
		WHOIS:     FromWHOIS(pr),
		RDAP:      FromRDAP(d),
	}
	res.Comparison = Compare(res.WHOIS, res.RDAP)
	return res, nil
}
