package registry

import (
	"strings"
	"testing"
	"time"

	"repro/internal/synth"
)

func TestThinRecordContents(t *testing.T) {
	d := synth.Generate(synth.Config{N: 1, Seed: 50})[0]
	thin := ThinRecord(d)
	for _, want := range []string{
		strings.ToUpper(d.Reg.Domain),
		d.Reg.RegistrarName,
		"Whois Server: " + d.Reg.WhoisServer,
	} {
		if !strings.Contains(thin, want) {
			t.Errorf("thin record missing %q:\n%s", want, thin)
		}
	}
	// Thin records must NOT leak registrant information (§2.2).
	if !d.Reg.Privacy && strings.Contains(thin, d.Reg.Registrant.Name) {
		t.Error("thin record leaks registrant name")
	}
}

func TestBuildEcosystem(t *testing.T) {
	domains := synth.Generate(synth.Config{N: 400, Seed: 51})
	eco := BuildEcosystem(domains, 0.075)
	if len(eco.Thin) != 400 {
		t.Errorf("thin store has %d entries", len(eco.Thin))
	}
	if len(eco.Servers) < 5 {
		t.Errorf("only %d registrar servers", len(eco.Servers))
	}
	// Withheld fraction near 7.5%.
	if eco.Missing < 10 || eco.Missing > 60 {
		t.Errorf("missing %d of 400, want ~30", eco.Missing)
	}
	thick := 0
	for _, m := range eco.Thick {
		thick += len(m)
	}
	if thick+eco.Missing != 400 {
		t.Errorf("thick (%d) + missing (%d) != 400", thick, eco.Missing)
	}
}

func TestEcosystemLookups(t *testing.T) {
	domains := synth.Generate(synth.Config{N: 50, Seed: 52})
	eco := BuildEcosystem(domains, 0)
	d := domains[0]
	if _, ok := eco.LookupThin(d.Reg.Domain); !ok {
		t.Error("thin lookup failed")
	}
	if _, ok := eco.LookupThin("  " + strings.ToUpper(d.Reg.Domain) + " "); !ok {
		t.Error("thin lookup should normalize case and spacing")
	}
	if _, ok := eco.LookupThin("nonexistent.com"); ok {
		t.Error("bogus thin lookup succeeded")
	}
	server := eco.Referral[d.Reg.Domain]
	if _, ok := eco.LookupThick(server, d.Reg.Domain); !ok {
		t.Error("thick lookup failed")
	}
	if _, ok := eco.LookupThick("wrong.server", d.Reg.Domain); ok {
		t.Error("thick lookup at wrong server succeeded")
	}
}

func TestRateLimiterAllowsUnderLimit(t *testing.T) {
	rl := NewRateLimiter(5, time.Second, 10*time.Second)
	now := time.Unix(1000, 0)
	for i := 0; i < 5; i++ {
		if !rl.Allow("1.2.3.4", now.Add(time.Duration(i)*time.Millisecond)) {
			t.Fatalf("query %d refused under limit", i)
		}
	}
}

func TestRateLimiterPenalizesOverLimit(t *testing.T) {
	rl := NewRateLimiter(3, time.Second, 10*time.Second)
	now := time.Unix(1000, 0)
	for i := 0; i < 3; i++ {
		rl.Allow("a", now)
	}
	if rl.Allow("a", now.Add(time.Millisecond)) {
		t.Fatal("4th query within window should be refused")
	}
	if rl.PenalizedUntil("a").IsZero() {
		t.Fatal("penalty not recorded")
	}
	// Still refused during the penalty, even after the window passes.
	if rl.Allow("a", now.Add(5*time.Second)) {
		t.Fatal("query during penalty should be refused")
	}
	// Allowed again after the penalty.
	if !rl.Allow("a", now.Add(11*time.Second)) {
		t.Fatal("query after penalty should be allowed")
	}
}

func TestRateLimiterPerSource(t *testing.T) {
	rl := NewRateLimiter(2, time.Second, 10*time.Second)
	now := time.Unix(2000, 0)
	rl.Allow("a", now)
	rl.Allow("a", now)
	if rl.Allow("a", now) {
		t.Fatal("a should be limited")
	}
	// Source b is unaffected — this is what the crawler's source
	// rotation exploits.
	if !rl.Allow("b", now) {
		t.Fatal("b should be allowed")
	}
}

func TestRateLimiterWindowSlides(t *testing.T) {
	rl := NewRateLimiter(2, time.Second, 10*time.Second)
	now := time.Unix(3000, 0)
	rl.Allow("a", now)
	rl.Allow("a", now.Add(100*time.Millisecond))
	// After the window, old queries age out.
	if !rl.Allow("a", now.Add(1500*time.Millisecond)) {
		t.Fatal("query after window should be allowed")
	}
}

func TestRateLimiterDisabled(t *testing.T) {
	var rl *RateLimiter
	if !rl.Allow("x", time.Now()) {
		t.Error("nil limiter should allow everything")
	}
	rl = NewRateLimiter(0, time.Second, time.Second)
	for i := 0; i < 100; i++ {
		if !rl.Allow("x", time.Now()) {
			t.Fatal("zero-limit limiter should allow everything")
		}
	}
}

// PenalizedUntil reports the end of the source's penalty window (zero
// time if none), for tests.
func (rl *RateLimiter) PenalizedUntil(source string) time.Time {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if st := rl.sources[source]; st != nil {
		return st.penalized
	}
	return time.Time{}
}
