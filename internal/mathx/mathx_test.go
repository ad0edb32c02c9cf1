package mathx

import (
	"math"
	"testing"
)

func TestAXPY(t *testing.T) {
	dst := []float64{1, 2, 3}
	AXPY(2, []float64{10, 20, 30}, dst)
	want := []float64{21, 42, 63}
	for i := range dst {
		if dst[i] != want[i] {
			t.Errorf("AXPY[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

func TestNorm2(t *testing.T) {
	if got := Norm2([]float64{3, 4}); got != 5 {
		t.Errorf("Norm2 = %v, want 5", got)
	}
}

func TestMaxAbs(t *testing.T) {
	if got := MaxAbs([]float64{-7, 3, 5}); got != 7 {
		t.Errorf("MaxAbs = %v, want 7", got)
	}
	if got := MaxAbs(nil); got != 0 {
		t.Errorf("MaxAbs(nil) = %v, want 0", got)
	}
}

func TestFillAndClone(t *testing.T) {
	x := make([]float64, 3)
	Fill(x, 2.5)
	y := Clone(x)
	y[0] = 0
	if x[0] != 2.5 {
		t.Error("Clone aliases the input")
	}
	for _, v := range x {
		if v != 2.5 {
			t.Errorf("Fill left %v", v)
		}
	}
}

func TestArgMax(t *testing.T) {
	i, v := ArgMax([]float64{1, 9, 3, 9})
	if i != 1 || v != 9 {
		t.Errorf("ArgMax = (%d, %v), want (1, 9) — first max wins", i, v)
	}
	i, v = ArgMax(nil)
	if i != -1 || !math.IsInf(v, -1) {
		t.Errorf("ArgMax(nil) = (%d, %v)", i, v)
	}
}

func TestDecayAXPY(t *testing.T) {
	x := []float64{1, -2, 3}
	dst := []float64{10, 20, 30}
	DecayAXPY(0.5, 2, x, dst)
	want := []float64{7, 6, 21} // 0.5*dst + 2*x
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("dst[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("DecayAXPY length mismatch did not panic")
		}
	}()
	DecayAXPY(1, 1, []float64{1}, []float64{1, 2})
}
