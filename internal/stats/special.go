package stats

import "math"

// RegularizedGammaP computes the regularized lower incomplete gamma function
// P(a, x) = γ(a, x) / Γ(a) for a > 0, x >= 0, using the standard series
// expansion for x < a+1 and the continued-fraction expansion otherwise.
func RegularizedGammaP(a, x float64) float64 {
	switch {
	case a <= 0 || math.IsNaN(a) || math.IsNaN(x):
		return math.NaN()
	case x < 0:
		return math.NaN()
	case x == 0:
		return 0
	}
	if x < a+1 {
		return gammaPSeries(a, x)
	}
	return 1 - gammaQContinuedFraction(a, x)
}

const (
	gammaEps     = 1e-14
	gammaMaxIter = 1000
)

// gammaPSeries evaluates P(a,x) by its power series, valid and fast for
// x < a+1.
func gammaPSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1.0 / a
	del := sum
	for i := 0; i < gammaMaxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*gammaEps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

// gammaQContinuedFraction evaluates Q(a,x) by the Lentz continued fraction,
// valid and fast for x >= a+1.
func gammaQContinuedFraction(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= gammaMaxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < gammaEps {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// ErfInv returns the inverse of math.Erf on (-1, 1). It uses an initial
// rational approximation refined by two Newton steps, giving close to full
// double precision.
func ErfInv(y float64) float64 {
	switch {
	case math.IsNaN(y) || y <= -1 || y >= 1:
		if y == 1 {
			return math.Inf(1)
		}
		if y == -1 {
			return math.Inf(-1)
		}
		return math.NaN()
	case y == 0:
		return 0
	}
	// Initial guess via the logarithmic approximation
	//   x ≈ sign(y) * sqrt(sqrt((2/(πa) + ln(1-y²)/2)²  − ln(1-y²)/a) − (2/(πa) + ln(1-y²)/2))
	// with a = 0.147 (Winitzki), then polish with Newton on erf(x) − y = 0.
	const a = 0.147
	ln1my2 := math.Log(1 - y*y)
	t := 2/(math.Pi*a) + ln1my2/2
	x := math.Sqrt(math.Sqrt(t*t-ln1my2/a) - t)
	if y < 0 {
		x = -x
	}
	for i := 0; i < 3; i++ {
		err := math.Erf(x) - y
		deriv := 2 / math.Sqrt(math.Pi) * math.Exp(-x*x)
		if deriv == 0 {
			break
		}
		x -= err / deriv
	}
	return x
}
