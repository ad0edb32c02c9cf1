package lifecycle

import "testing"

func testSentinel() *sentinel {
	return newSentinel(Options{
		SampleEvery: 1, Window: 8, MinWindow: 4,
		ConfidenceFloor: 0.5, NullOtherCeiling: 0.9,
	}.withDefaults())
}

func TestSentinelFlagsLowConfidence(t *testing.T) {
	s := testSentinel()
	// Below minWindow: never flags, even at zero confidence.
	for i := 0; i < 3; i++ {
		if f, _, _ := s.observe(0, "r", 0, 0); f {
			t.Fatal("flagged before minWindow observations")
		}
	}
	f, _, total := s.observe(0, "r", 0, 0)
	if !f || total != 1 {
		t.Fatalf("4th low-confidence observation: flagged=%v total=%d, want true/1", f, total)
	}
	// Already flagged: no repeated transition.
	if f, _, _ := s.observe(0, "r", 0, 0); f {
		t.Fatal("flag transition reported twice")
	}
	if got := s.flagged(); len(got) != 1 || got[0] != "r" {
		t.Fatalf("flagged() = %v", got)
	}
	// Healthy observations wash the window out (window=8).
	var un bool
	for i := 0; i < 8; i++ {
		_, u, _ := s.observe(0, "r", 1, 0)
		un = un || u
	}
	if !un {
		t.Fatal("no unflag transition after recovery")
	}
	if got := s.flagged(); len(got) != 0 {
		t.Fatalf("flagged() after recovery = %v", got)
	}
}

func TestSentinelFlagsNullRate(t *testing.T) {
	s := testSentinel()
	// Confidence is healthy, but the model labels everything Null —
	// the ceiling signal must trip on its own.
	var f bool
	for i := 0; i < 4; i++ {
		f, _, _ = s.observe(0, "r", 0.95, 1.0)
	}
	if !f {
		t.Fatal("all-null parses did not flag")
	}
}

func TestSentinelIsolatesRegistrars(t *testing.T) {
	s := testSentinel()
	for i := 0; i < 8; i++ {
		s.observe(0, "bad", 0.1, 0)
		s.observe(0, "good", 0.95, 0)
	}
	got := s.flagged()
	if len(got) != 1 || got[0] != "bad" {
		t.Fatalf("flagged() = %v, want [bad]", got)
	}
}

func TestSentinelSampling(t *testing.T) {
	s := newSentinel(Options{SampleEvery: 4}.withDefaults())
	n := 0
	for i := 0; i < 400; i++ {
		if s.shouldScore() {
			n++
		}
	}
	if n != 100 {
		t.Fatalf("scored %d of 400 with SampleEvery=4, want 100", n)
	}
	every := newSentinel(Options{SampleEvery: 1}.withDefaults())
	for i := 0; i < 10; i++ {
		if !every.shouldScore() {
			t.Fatal("SampleEvery=1 skipped a parse")
		}
	}
}
