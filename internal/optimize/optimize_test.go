package optimize

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBisect(t *testing.T) {
	root, err := Bisect(func(x float64) float64 { return x*x - 2 }, 0, 2, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(root-math.Sqrt2) > 1e-10 {
		t.Errorf("root = %v, want √2", root)
	}
	// Endpoint roots are returned directly.
	root, err = Bisect(func(x float64) float64 { return x }, 0, 5, 1e-12)
	if err != nil || root != 0 {
		t.Errorf("root = %v err = %v", root, err)
	}
	// No sign change -> ErrBracket.
	if _, err := Bisect(func(x float64) float64 { return 1 }, 0, 1, 1e-12); err != ErrBracket {
		t.Errorf("err = %v, want ErrBracket", err)
	}
}

func TestBisectRandomRootsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		root := r.Float64()*100 - 50
		g := func(x float64) float64 { return math.Tanh(x - root) }
		got, err := Bisect(g, root-30, root+17, 1e-10)
		return err == nil && math.Abs(got-root) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBisectDefaultTolerance(t *testing.T) {
	// A tolerance of zero or below falls back to 1e-12.
	for _, tol := range []float64{0, -1} {
		root, err := Bisect(func(x float64) float64 { return math.Exp(x) - 3 }, -5, 5, tol)
		if err != nil || math.Abs(root-math.Log(3)) > 1e-11 {
			t.Errorf("tol=%v: root = %v err = %v, want log 3", tol, root, err)
		}
	}
}

func TestBisectNaNEndpoint(t *testing.T) {
	// An endpoint without a value brackets nothing.
	f := func(x float64) float64 {
		if x > 3 {
			return math.NaN()
		}
		return x - 1
	}
	if _, err := Bisect(f, 0, 4, 1e-12); err != ErrBracket {
		t.Errorf("err = %v, want ErrBracket", err)
	}
	if _, err := Bisect(f, 4, 0, 1e-12); err != ErrBracket {
		t.Errorf("reversed: err = %v, want ErrBracket", err)
	}
}

func TestBisectRetreatsFromNaN(t *testing.T) {
	// A midpoint without a value moves the upper end down to it, so a
	// root below an undefined stretch is still found.
	f := func(x float64) float64 {
		if x > 1.5 && x < 4 {
			return math.NaN()
		}
		return x - 1
	}
	root, err := Bisect(f, 0, 8, 1e-12)
	if err != nil || math.Abs(root-1) > 1e-10 {
		t.Errorf("root = %v err = %v, want 1", root, err)
	}
}
