package stats

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// Summary accumulates a stream of float64 observations and reports standard
// moments (Welford). It is test support: rng_test.go checks the generators'
// moments with it. The zero value is ready to use.
type Summary struct {
	n        int
	mean     float64
	m2       float64 // sum of squared deviations (Welford)
	min, max float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// N returns the number of observations recorded.
func (s *Summary) N() int { return s.n }

// Mean returns the arithmetic mean, or 0 with no observations.
func (s *Summary) Mean() float64 { return s.mean }

// Var returns the sample variance (n-1 denominator), or 0 with fewer than
// two observations.
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation, or 0 with no observations.
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation, or 0 with no observations.
func (s *Summary) Max() float64 { return s.max }

// String formats the summary for log output.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g",
		s.n, s.Mean(), s.StdDev(), s.Min(), s.Max())
}

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.N() != 0 || s.Mean() != 0 || s.Var() != 0 {
		t.Fatal("zero Summary not zeroed")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d, want 8", s.N())
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Errorf("mean = %v, want 5", s.Mean())
	}
	// Sample variance of this classic dataset is 32/7.
	if math.Abs(s.Var()-32.0/7.0) > 1e-12 {
		t.Errorf("var = %v, want %v", s.Var(), 32.0/7.0)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("min/max = %v/%v, want 2/9", s.Min(), s.Max())
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

func TestSummarySingleObservation(t *testing.T) {
	var s Summary
	s.Add(3.5)
	if s.Var() != 0 || s.StdDev() != 0 {
		t.Errorf("variance of one observation = %v, want 0", s.Var())
	}
	if s.Min() != 3.5 || s.Max() != 3.5 {
		t.Errorf("min/max = %v/%v, want 3.5/3.5", s.Min(), s.Max())
	}
}

func TestSummaryMeanQuick(t *testing.T) {
	f := func(xs []float64) bool {
		var s Summary
		sum := 0.0
		ok := true
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				ok = false
				break
			}
			s.Add(x)
			sum += x
		}
		if !ok || len(xs) == 0 {
			return true
		}
		want := sum / float64(len(xs))
		return math.Abs(s.Mean()-want) <= 1e-6*(1+math.Abs(want))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
