// Package mathx provides small numerically careful helpers used by the CRF
// training and inference code: arg-max, norms, and vector arithmetic on
// dense float64 slices.
//
// NegInf is the log-domain zero: ArgMax returns it for an empty slice,
// and callers encode impossible transitions with it in log-space score
// tables.
package mathx

import "math"

// NegInf is the log-domain representation of probability zero.
var NegInf = math.Inf(-1)

// AXPY computes dst[i] += alpha * x[i] in place.
func AXPY(alpha float64, x, dst []float64) {
	if len(x) != len(dst) {
		panic("mathx: AXPY length mismatch")
	}
	for i, xi := range x {
		dst[i] += alpha * xi
	}
}

// DecayAXPY computes dst[i] = decay*dst[i] + alpha*x[i] in place — the
// fused multiplicative-weight-decay update used by SGD with L2.
func DecayAXPY(decay, alpha float64, x, dst []float64) {
	if len(x) != len(dst) {
		panic("mathx: DecayAXPY length mismatch")
	}
	for i, xi := range x {
		dst[i] = decay*dst[i] + alpha*xi
	}
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	var s float64
	for _, xi := range x {
		s += xi * xi
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest absolute value in x, or 0 for an empty slice.
func MaxAbs(x []float64) float64 {
	var m float64
	for _, xi := range x {
		if a := math.Abs(xi); a > m {
			m = a
		}
	}
	return m
}

// Fill sets every element of x to v.
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}

// Clone returns a fresh copy of x.
func Clone(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}

// ArgMax returns the index of the largest element of x and its value.
// It returns (-1, NegInf) for an empty slice.
func ArgMax(x []float64) (int, float64) {
	if len(x) == 0 {
		return -1, NegInf
	}
	best, bestV := 0, x[0]
	for i, xi := range x[1:] {
		if xi > bestV {
			best, bestV = i+1, xi
		}
	}
	return best, bestV
}
