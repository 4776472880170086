package gds_test

import (
	"math"
	"testing"

	"uswg/internal/dist"
	"uswg/internal/gds"
	"uswg/internal/scenario"
)

// TestFigureExamples compiles the example distributions of Figures 5.1 and
// 5.2, as the registered fig5.1/fig5.2 scenarios declare them, through
// Compile and checks each has a density with mass on the plotted range.
func TestFigureExamples(t *testing.T) {
	for _, name := range []string{"fig5.1", "fig5.2"} {
		sc, ok := scenario.Lookup(name)
		if !ok {
			t.Fatalf("scenario %q not registered", name)
		}
		panels := sc.Output.Densities
		if len(panels) != 3 {
			t.Fatalf("%s has %d panels, want 3", name, len(panels))
		}
		for _, p := range panels {
			d, err := gds.Compile(p.Dist)
			if err != nil {
				t.Fatalf("%s: %v", p.Label, err)
			}
			den, ok := d.(dist.Density)
			if !ok {
				t.Fatalf("%s: no density", p.Label)
			}
			// Densities must be non-negative and have mass on [0, 100]
			// (the thesis plots x in 0..100).
			var mass float64
			for x := 0.5; x < 100; x++ {
				y := den.PDF(x)
				if y < 0 || math.IsNaN(y) {
					t.Fatalf("%s: PDF(%v) = %v", p.Label, x, y)
				}
				mass += y
			}
			if mass <= 0 {
				t.Errorf("%s: no mass on [0, 100]", p.Label)
			}
		}
	}
}
