// Package timeseries provides the time-series kernel used throughout the
// Chiaroscuro reproduction: a Series value type, distance functions,
// normalization, resampling, and subsequence matching (the "Bob finds the
// closest profiles" use case of the demonstration, Fig. 3 panel 6).
//
// A Series is a plain []float64: one value per time step, uniformly
// sampled. All functions treat series as immutable unless their name says
// otherwise (InPlace suffix).
package timeseries

import (
	"errors"
	"fmt"
	"math"
)

// Series is a uniformly sampled time-series.
type Series []float64

// ErrLengthMismatch is returned when two series of different lengths are
// combined by an operation that requires equal lengths.
var ErrLengthMismatch = errors.New("timeseries: length mismatch")

// ErrEmpty is returned when an operation needs a non-empty series.
var ErrEmpty = errors.New("timeseries: empty series")

// Clone returns a deep copy of s.
func (s Series) Clone() Series {
	out := make(Series, len(s))
	copy(out, s)
	return out
}

// Zero returns a series of n zeros.
func Zero(n int) Series {
	return make(Series, n)
}

// AddInPlace adds t to s element-wise, modifying s.
func (s Series) AddInPlace(t Series) error {
	if len(s) != len(t) {
		return fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(s), len(t))
	}
	for i := range s {
		s[i] += t[i]
	}
	return nil
}

// SubInPlace subtracts t from s element-wise, modifying s.
func (s Series) SubInPlace(t Series) error {
	if len(s) != len(t) {
		return fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(s), len(t))
	}
	for i := range s {
		s[i] -= t[i]
	}
	return nil
}

// ScaleInPlace multiplies every element of s by f.
func (s Series) ScaleInPlace(f float64) {
	for i := range s {
		s[i] *= f
	}
}

// Sum returns the sum of the elements of s.
func (s Series) Sum() float64 {
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum
}

// Mean returns the arithmetic mean of s. It returns 0 for an empty series.
func (s Series) Mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.Sum() / float64(len(s))
}

// Std returns the population standard deviation of s.
func (s Series) Std() float64 {
	if len(s) == 0 {
		return 0
	}
	m := s.Mean()
	var acc float64
	for _, v := range s {
		d := v - m
		acc += d * d
	}
	return math.Sqrt(acc / float64(len(s)))
}

// Min returns the smallest element of s, or +Inf for an empty series.
func (s Series) Min() float64 {
	min := math.Inf(1)
	for _, v := range s {
		if v < min {
			min = v
		}
	}
	return min
}

// Max returns the largest element of s, or -Inf for an empty series.
func (s Series) Max() float64 {
	max := math.Inf(-1)
	for _, v := range s {
		if v > max {
			max = v
		}
	}
	return max
}

// SquaredL2 returns the squared Euclidean distance between a and b.
func SquaredL2(a, b Series) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(a), len(b))
	}
	var acc float64
	for i := range a {
		d := a[i] - b[i]
		acc += d * d
	}
	return acc, nil
}

// L2 returns the Euclidean distance between a and b.
func L2(a, b Series) (float64, error) {
	sq, err := SquaredL2(a, b)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(sq), nil
}

// L1 returns the Manhattan distance between a and b.
func L1(a, b Series) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(a), len(b))
	}
	var acc float64
	for i := range a {
		acc += math.Abs(a[i] - b[i])
	}
	return acc, nil
}

// LInf returns the Chebyshev distance between a and b.
func LInf(a, b Series) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(a), len(b))
	}
	var max float64
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if d > max {
			max = d
		}
	}
	return max, nil
}

// Resample linearly interpolates s onto m uniformly spaced points covering
// the same time span. m must be >= 1 and s non-empty.
func Resample(s Series, m int) (Series, error) {
	if len(s) == 0 {
		return nil, ErrEmpty
	}
	if m < 1 {
		return nil, fmt.Errorf("timeseries: resample target %d < 1", m)
	}
	if m == 1 {
		return Series{s.Mean()}, nil
	}
	if len(s) == 1 {
		out := make(Series, m)
		for i := range out {
			out[i] = s[0]
		}
		return out, nil
	}
	out := make(Series, m)
	scale := float64(len(s)-1) / float64(m-1)
	for i := range out {
		pos := float64(i) * scale
		lo := int(math.Floor(pos))
		if lo >= len(s)-1 {
			out[i] = s[len(s)-1]
			continue
		}
		frac := pos - float64(lo)
		out[i] = s[lo]*(1-frac) + s[lo+1]*frac
	}
	return out, nil
}

// MovingAverage returns s smoothed with a centered moving-average window of
// the given (odd or even) width. Width <= 1 returns a copy of s. Edges use
// a truncated window. This is the "smoothing of the perturbed means"
// quality-enhancing heuristic of the paper (Sec. II.B).
func MovingAverage(s Series, width int) Series {
	out := make(Series, len(s))
	if width <= 1 {
		copy(out, s)
		return out
	}
	half := width / 2
	for i := range s {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half
		if hi > len(s)-1 {
			hi = len(s) - 1
		}
		var acc float64
		for j := lo; j <= hi; j++ {
			acc += s[j]
		}
		out[i] = acc / float64(hi-lo+1)
	}
	return out
}

// ExponentialSmoothing returns the exponentially smoothed version of s with
// factor alpha in (0, 1]: out[0]=s[0], out[i]=alpha*s[i]+(1-alpha)*out[i-1].
func ExponentialSmoothing(s Series, alpha float64) (Series, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("timeseries: smoothing factor %v outside (0,1]", alpha)
	}
	out := make(Series, len(s))
	if len(s) == 0 {
		return out, nil
	}
	out[0] = s[0]
	for i := 1; i < len(s); i++ {
		out[i] = alpha*s[i] + (1-alpha)*out[i-1]
	}
	return out, nil
}

// Clamp limits every element of s into [lo, hi], returning a new series.
func Clamp(s Series, lo, hi float64) Series {
	out := make(Series, len(s))
	copy(out, s)
	ClampInPlace(out, lo, hi)
	return out
}

// ClampInPlace is Clamp overwriting s.
func ClampInPlace(s Series, lo, hi float64) {
	for i, v := range s {
		switch {
		case v < lo:
			s[i] = lo
		case v > hi:
			s[i] = hi
		}
	}
}
