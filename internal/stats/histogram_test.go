package stats

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"uswg/internal/rng"
)

func TestNewHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(0, 10, 0); err == nil {
		t.Error("expected error for zero bins")
	}
	if _, err := NewHistogram(10, 10, 5); err == nil {
		t.Error("expected error for empty range")
	}
	if _, err := NewHistogram(10, 5, 5); err == nil {
		t.Error("expected error for inverted range")
	}
}

func TestHistogramBinning(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0, 1.9, 2, 5, 9.99} {
		h.Add(x)
	}
	want := []float64{2, 1, 1, 0, 1}
	for i, w := range want {
		if h.Counts[i] != w {
			t.Errorf("bin %d = %v, want %v (counts %v)", i, h.Counts[i], w, h.Counts)
		}
	}
	if h.Total() != 5 {
		t.Errorf("Total = %d, want 5", h.Total())
	}
}

func TestHistogramClamping(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	h.Add(-100)
	h.Add(100)
	if h.Counts[0] != 1 || h.Counts[4] != 1 {
		t.Errorf("out-of-range values not clamped: %v", h.Counts)
	}
}

func TestHistogramCenters(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 3, 5, 7, 9}
	for i, c := range h.Centers() {
		if math.Abs(c-want[i]) > 1e-12 {
			t.Errorf("center %d = %v, want %v", i, c, want[i])
		}
	}
	if h.BinWidth() != 2 {
		t.Errorf("BinWidth = %v, want 2", h.BinWidth())
	}
}

func TestSmoothPreservesMass(t *testing.T) {
	f := func(seed int64) bool {
		// Mass is preserved up to boundary truncation effects only when
		// windows are fully interior; with truncated windows the total can
		// shift slightly, but a flat array must be exactly preserved.
		xs := []float64{4, 4, 4, 4, 4, 4, 4}
		sm := SmoothMovingAverage(xs, 3)
		for _, v := range sm {
			if math.Abs(v-4) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSmoothWindowOne(t *testing.T) {
	xs := []float64{1, 5, 2}
	sm := SmoothMovingAverage(xs, 1)
	for i := range xs {
		if sm[i] != xs[i] {
			t.Errorf("window 1 changed values: %v", sm)
		}
	}
	// Must be a copy, not an alias.
	sm[0] = 99
	if xs[0] == 99 {
		t.Error("SmoothMovingAverage aliased its input")
	}
}

func TestSmoothReducesVariance(t *testing.T) {
	xs := []float64{10, 0, 10, 0, 10, 0, 10, 0, 10, 0}
	sm := SmoothMovingAverage(xs, 3)
	var raw, smooth Summary
	raw.AddAll(xs)
	smooth.AddAll(sm)
	if smooth.Var() >= raw.Var() {
		t.Errorf("smoothing should reduce variance: %v >= %v", smooth.Var(), raw.Var())
	}
}

func TestSmoothEvenWindowWidened(t *testing.T) {
	xs := []float64{0, 0, 9, 0, 0}
	a := SmoothMovingAverage(xs, 2) // widened to 3
	b := SmoothMovingAverage(xs, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("even window should behave like next odd window: %v vs %v", a, b)
		}
	}
}

func TestHistogramSmoothed(t *testing.T) {
	h, err := NewHistogram(0, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		h.Add(5)
	}
	s := h.Smoothed(3)
	if s.Total() != h.Total() {
		t.Errorf("smoothed Total = %d, want %d", s.Total(), h.Total())
	}
	if s.Counts[5] >= h.Counts[5] {
		t.Error("smoothing should spread the spike")
	}
	if s.Min != h.Min || s.Max != h.Max {
		t.Error("smoothing should preserve range")
	}
}

// BenchmarkAblationSmoothingWindow times the Figures 5.3-5.5 smoothing pass
// across window widths, over a seeded 40-bin histogram shaped like the
// access-per-byte panel (600 sessions on [0, 10)).
func BenchmarkAblationSmoothingWindow(b *testing.B) {
	h, err := NewHistogram(0, 10, 40)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	for i := 0; i < 600; i++ {
		h.Add(2 * r.ExpFloat64())
	}
	for _, w := range []int{3, 5, 9} {
		b.Run(fmt.Sprintf("window=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = h.Smoothed(w)
			}
		})
	}
}
