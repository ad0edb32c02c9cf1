package crf

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
)

// The log-space reductions the reference recursions in engine_test.go
// and the brute-force partition function in crf_test.go sum with. The
// production kernel works in probability space and needs neither.

// logSumExp returns log(exp(a) + exp(b)) computed without overflow.
func logSumExp(a, b float64) float64 {
	if a == mathx.NegInf {
		return b
	}
	if b == mathx.NegInf {
		return a
	}
	if a < b {
		a, b = b, a
	}
	return a + math.Log1p(math.Exp(b-a))
}

// logSumExpSlice returns log(sum_i exp(xs[i])). It returns mathx.NegInf for an
// empty slice, matching the convention that an empty sum has probability 0.
func logSumExpSlice(xs []float64) float64 {
	if len(xs) == 0 {
		return mathx.NegInf
	}
	max := xs[0]
	for _, x := range xs[1:] {
		if x > max {
			max = x
		}
	}
	if max == mathx.NegInf {
		return mathx.NegInf
	}
	var sum float64
	for _, x := range xs {
		sum += math.Exp(x - max)
	}
	return max + math.Log(sum)
}

func almostEqual(a, b, tol float64) bool {
	if math.IsInf(a, -1) && math.IsInf(b, -1) {
		return true
	}
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestLogSumExpBasic(t *testing.T) {
	cases := []struct {
		a, b, want float64
	}{
		{0, 0, math.Log(2)},
		{1, 1, 1 + math.Log(2)},
		{0, mathx.NegInf, 0},
		{mathx.NegInf, 0, 0},
		{mathx.NegInf, mathx.NegInf, mathx.NegInf},
		{1000, 1000, 1000 + math.Log(2)}, // no overflow
		{-1000, -1000, -1000 + math.Log(2)},
	}
	for _, c := range cases {
		if got := logSumExp(c.a, c.b); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("logSumExp(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestLogSumExpCommutative(t *testing.T) {
	f := func(a, b float64) bool {
		a = math.Mod(a, 700)
		b = math.Mod(b, 700)
		return almostEqual(logSumExp(a, b), logSumExp(b, a), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLogSumExpMonotone(t *testing.T) {
	// log(e^a + e^b) >= max(a, b), with equality only when the other
	// operand is -inf.
	f := func(a, b float64) bool {
		a = math.Mod(a, 700)
		b = math.Mod(b, 700)
		return logSumExp(a, b) >= math.Max(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLogSumExpSliceMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 50
		}
		want := mathx.NegInf
		for _, x := range xs {
			want = logSumExp(want, x)
		}
		if got := logSumExpSlice(xs); !almostEqual(got, want, 1e-10) {
			t.Fatalf("trial %d: LogSumExpSlice=%v pairwise=%v xs=%v", trial, got, want, xs)
		}
	}
}

func TestLogSumExpSliceEmpty(t *testing.T) {
	if got := logSumExpSlice(nil); !math.IsInf(got, -1) {
		t.Errorf("empty slice: got %v, want -Inf", got)
	}
}

func TestLogSumExpSliceAllNegInf(t *testing.T) {
	xs := []float64{mathx.NegInf, mathx.NegInf, mathx.NegInf}
	if got := logSumExpSlice(xs); !math.IsInf(got, -1) {
		t.Errorf("all -inf: got %v, want -Inf", got)
	}
}

func TestLogSumExpSliceExactSmall(t *testing.T) {
	xs := []float64{math.Log(1), math.Log(2), math.Log(3)}
	want := math.Log(6)
	if got := logSumExpSlice(xs); !almostEqual(got, want, 1e-12) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestLogSumExpSliceAgainstDirect(t *testing.T) {
	// For small magnitudes, compare with the naive computation.
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		var direct float64
		for i, r := range raw {
			xs[i] = math.Mod(r, 10)
			direct += math.Exp(xs[i])
		}
		return almostEqual(logSumExpSlice(xs), math.Log(direct), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
