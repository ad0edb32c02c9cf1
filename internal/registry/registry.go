// Package registry models the data layer of the com ecosystem's "thin"
// registry split (§2.2): a registry (Verisign-like) that serves thin
// records containing only registrar, dates, status and name servers plus a
// referral to the sponsoring registrar's WHOIS server, and per-registrar
// thick stores holding the full records. It also provides the per-source
// rate limiter whose behaviour the crawler must learn to respect (§4.1).
package registry

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/synth"
)

// RegistryServerName is the host name of the simulated thin registry.
const RegistryServerName = "whois.registry.example"

// NoMatch is the registry's response for unknown domains.
const NoMatch = "No match for domain."

// ThinRecord renders the Verisign-style thin record for a domain.
func ThinRecord(d *synth.Domain) string {
	var b strings.Builder
	reg := &d.Reg
	fmt.Fprintf(&b, "   Domain Name: %s\n", strings.ToUpper(reg.Domain))
	fmt.Fprintf(&b, "   Registrar: %s\n", reg.RegistrarName)
	fmt.Fprintf(&b, "   Sponsoring Registrar IANA ID: %d\n", reg.RegistrarIANA)
	fmt.Fprintf(&b, "   Whois Server: %s\n", reg.WhoisServer)
	fmt.Fprintf(&b, "   Referral URL: %s\n", reg.RegistrarURL)
	for _, ns := range reg.NameServers {
		fmt.Fprintf(&b, "   Name Server: %s\n", strings.ToUpper(ns))
	}
	for _, st := range reg.Statuses {
		fmt.Fprintf(&b, "   Status: %s\n", st)
	}
	fmt.Fprintf(&b, "   Updated Date: %s\n", reg.Updated.Format("02-Jan-2006"))
	fmt.Fprintf(&b, "   Creation Date: %s\n", reg.Created.Format("02-Jan-2006"))
	fmt.Fprintf(&b, "   Expiration Date: %s\n", reg.Expires.Format("02-Jan-2006"))
	b.WriteString("\n>>> Last update of whois database: 2015-02-01T00:00:00Z <<<\n")
	return b.String()
}

// Ecosystem is the full simulated WHOIS data plane: one thin store plus
// one thick store per registrar WHOIS server.
type Ecosystem struct {
	// Thin maps domain -> thin record text at the registry.
	Thin map[string]string
	// Thick maps registrar server name -> domain -> thick record text.
	Thick map[string]map[string]string
	// Referral maps domain -> registrar server name.
	Referral map[string]string
	// Servers lists every registrar server name, sorted-insert order.
	Servers []string
	// Missing counts domains whose thick record was withheld (expired or
	// otherwise gone, the §4.1 failure tail).
	Missing int
}

// BuildEcosystem loads generated domains into stores. failFraction of the
// domains (deterministically chosen by index hash) get a thin record but
// no thick record, so crawling them fails exactly as ~7.5% of the paper's
// queries did.
func BuildEcosystem(domains []*synth.Domain, failFraction float64) *Ecosystem {
	e := &Ecosystem{
		Thin:     make(map[string]string),
		Thick:    make(map[string]map[string]string),
		Referral: make(map[string]string),
	}
	seen := make(map[string]bool)
	threshold := int(failFraction * 1000)
	for i, d := range domains {
		dom := d.Reg.Domain
		e.Thin[dom] = ThinRecord(d)
		server := d.Reg.WhoisServer
		e.Referral[dom] = server
		if !seen[server] {
			seen[server] = true
			e.Servers = append(e.Servers, server)
		}
		if m := e.Thick[server]; m == nil {
			e.Thick[server] = make(map[string]string)
		}
		if (i*2654435761)%1000 < threshold {
			e.Missing++
			continue // thin exists, thick withheld
		}
		e.Thick[server][dom] = d.Render().Text
	}
	return e
}

// LookupThin returns the registry's answer for a query.
func (e *Ecosystem) LookupThin(domain string) (string, bool) {
	r, ok := e.Thin[strings.ToLower(strings.TrimSpace(domain))]
	return r, ok
}

// LookupThick returns a registrar server's answer for a query.
func (e *Ecosystem) LookupThick(server, domain string) (string, bool) {
	m, ok := e.Thick[server]
	if !ok {
		return "", false
	}
	r, ok := m[strings.ToLower(strings.TrimSpace(domain))]
	return r, ok
}

// RateLimiter enforces the per-source-IP query budget real WHOIS servers
// apply (§4.1): at most Limit queries per Window per source; exceeding it
// triggers a Penalty period during which every query is refused. The
// thresholds are not advertised — the crawler has to infer them.
type RateLimiter struct {
	Limit   int
	Window  time.Duration
	Penalty time.Duration

	mu      sync.Mutex
	sources map[string]*sourceState
}

type sourceState struct {
	times     []time.Time // query times within the window
	penalized time.Time   // zero if not penalized
}

// NewRateLimiter builds a limiter; limit <= 0 disables limiting.
func NewRateLimiter(limit int, window, penalty time.Duration) *RateLimiter {
	return &RateLimiter{Limit: limit, Window: window, Penalty: penalty, sources: make(map[string]*sourceState)}
}

// Allow records a query from source at time now and reports whether it is
// within budget. A refused query extends nothing but the penalty.
func (rl *RateLimiter) Allow(source string, now time.Time) bool {
	if rl == nil || rl.Limit <= 0 {
		return true
	}
	rl.mu.Lock()
	defer rl.mu.Unlock()
	st := rl.sources[source]
	if st == nil {
		st = &sourceState{}
		rl.sources[source] = st
	}
	if !st.penalized.IsZero() {
		if now.Before(st.penalized) {
			return false
		}
		st.penalized = time.Time{}
		st.times = st.times[:0]
	}
	// Drop queries older than the window.
	cut := 0
	for cut < len(st.times) && now.Sub(st.times[cut]) > rl.Window {
		cut++
	}
	st.times = st.times[cut:]
	if len(st.times) >= rl.Limit {
		st.penalized = now.Add(rl.Penalty)
		return false
	}
	st.times = append(st.times, now)
	return true
}
