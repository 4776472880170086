package scenario

import (
	"context"
	"errors"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"

	"uswg/internal/config"
)

// shapeOpts runs the paper-shape checks at 30% of the thesis's session
// counts: per-point noise shrinks with session count, and the shapes below
// must hold without the golden's exact bytes to lean on.
var shapeOpts = Options{Scale: 0.3}

var (
	shapeMu   sync.Mutex
	shapeRuns = map[string]Result{}
)

// shapeRun runs a registered scenario once at shapeOpts and caches the
// result, so the tests that share a sweep (fig5.6 feeds three of them) pay
// for it once.
func shapeRun(t *testing.T, name string) Result {
	t.Helper()
	shapeMu.Lock()
	defer shapeMu.Unlock()
	if res, ok := shapeRuns[name]; ok {
		return res
	}
	sc, ok := Lookup(name)
	if !ok {
		t.Fatalf("no registered scenario %s", name)
	}
	res, err := Run(context.Background(), sc, shapeOpts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	shapeRuns[name] = res
	return res
}

// shapeCurve runs a curve scenario and returns its points.
func shapeCurve(t *testing.T, name string) *CurveResult {
	t.Helper()
	res := shapeRun(t, name)
	c, ok := res.(*CurveResult)
	if !ok {
		t.Fatalf("%s: result type %T, want *CurveResult", name, res)
	}
	return c
}

// table is a Tabular result indexed by header, with its cells parsed back
// to numbers.
type table struct {
	t       *testing.T
	headers []string
	rows    [][]string
}

func shapeTable(t *testing.T, name string) table {
	t.Helper()
	res := shapeRun(t, name)
	tab, ok := res.(Tabular)
	if !ok {
		t.Fatalf("%s: result type %T is not Tabular", name, res)
	}
	_, headers, rows := tab.Table()
	return table{t: t, headers: headers, rows: rows}
}

// cell returns row i's cell under header.
func (tb table) cell(i int, header string) string {
	tb.t.Helper()
	for j, h := range tb.headers {
		if h == header {
			return tb.rows[i][j]
		}
	}
	tb.t.Fatalf("no column %q in %v", header, tb.headers)
	return ""
}

// num parses row i's cell under header; a "mean(std)" cell parses to both.
func (tb table) num(i int, header string) (v, std float64) {
	tb.t.Helper()
	s := strings.TrimSuffix(tb.cell(i, header), "%")
	s, sd, paired := strings.Cut(s, "(")
	var err error
	if v, err = strconv.ParseFloat(s, 64); err == nil && paired {
		std, err = strconv.ParseFloat(strings.TrimSuffix(sd, ")"), 64)
	}
	if err != nil {
		tb.t.Fatalf("row %d %q: %v", i, header, err)
	}
	return v, std
}

func TestTable51ShapesHold(t *testing.T) {
	tb := shapeTable(t, "table5.1")
	if len(tb.rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(tb.rows))
	}
	for i := range tb.rows {
		cat := tb.cell(i, "category")
		if files, _ := tb.num(i, "files"); files == 0 {
			t.Errorf("%s: no files", cat)
		}
		// Created percentages should track the spec within a few points
		// (rounding to whole files perturbs small categories).
		spec, _ := tb.num(i, "spec %")
		created, _ := tb.num(i, "%")
		if diff := created - spec; diff > 6 || diff < -6 {
			t.Errorf("%s: created %.1f%% vs spec %.1f%%", cat, created, spec)
		}
	}
	out := shapeRun(t, "table5.1").Render()
	if !strings.Contains(out, "Table 5.1") || !strings.Contains(out, "REG/USER/TEMP") {
		t.Errorf("render:\n%s", out)
	}
}

func TestTable52ShapesHold(t *testing.T) {
	tb := shapeTable(t, "table5.2")
	if len(tb.rows) != 9 {
		t.Fatalf("rows = %d", len(tb.rows))
	}
	// The REG/USER/RDONLY category is accessed by 100% of users in the
	// spec; observed session share should be high.
	rdonly := -1
	for i := range tb.rows {
		if tb.cell(i, "category") == "REG/USER/RDONLY" {
			rdonly = i
		}
	}
	if rdonly < 0 {
		t.Fatal("missing category")
	}
	if obs, _ := tb.num(rdonly, "obs %sessions"); obs < 90 {
		t.Errorf("REG/USER/RDONLY observed in %.0f%% of sessions, want ~100%%", obs)
	}
	if !strings.Contains(shapeRun(t, "table5.2").Render(), "Table 5.2") {
		t.Error("render missing title")
	}
}

func TestTable53ResponseGrowsWithUsers(t *testing.T) {
	const access, response = "access size mean(std)", "response time mean(std)"
	tb := shapeTable(t, "table5.3")
	if len(tb.rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(tb.rows))
	}
	// Access size is load-independent: roughly constant across rows.
	base, _ := tb.num(0, access)
	for i := range tb.rows {
		users := tb.cell(i, "users")
		if mean, _ := tb.num(i, access); mean < base*0.7 || mean > base*1.3 {
			t.Errorf("users=%s access mean %v drifted from %v", users, mean, base)
		}
		if _, std := tb.num(i, response); std <= 0 {
			t.Errorf("users=%s response std = %v", users, std)
		}
	}
	// Response time grows with contention: 6 users well above 1 user.
	r1, _ := tb.num(0, response)
	r6, _ := tb.num(5, response)
	if r6 <= r1 {
		t.Errorf("response mean did not grow: 1 user %v, 6 users %v", r1, r6)
	}
	if !strings.Contains(shapeRun(t, "table5.3").Render(), "Table 5.3") {
		t.Error("render missing title")
	}
}

func TestFig53to55Histograms(t *testing.T) {
	res, ok := shapeRun(t, "fig5.3").(*HistogramsResult)
	if !ok {
		t.Fatalf("result type %T, want *HistogramsResult", res)
	}
	sum := func(xs []float64) (s float64) {
		for _, x := range xs {
			s += x
		}
		return s
	}
	for _, p := range res.Panels {
		raw, smoothed := sum(p.Raw), sum(p.Smoothed)
		if raw == 0 {
			t.Errorf("%s: empty histogram", p.Title)
		}
		// The moving average only moves mass between bins; the
		// edge-truncated windows are the one place it can change a total.
		if len(p.Smoothed) != len(p.Raw) || smoothed < raw*0.95 || smoothed > raw*1.05 {
			t.Errorf("%s: smoothing changed totals: %v bins %v vs %v bins %v",
				p.Title, len(p.Raw), raw, len(p.Smoothed), smoothed)
		}
	}
	out := res.Render()
	if !strings.Contains(out, "before smoothing") || !strings.Contains(out, "after smoothing") {
		t.Error("render missing panels")
	}
}

func TestFig56LinearGrowth(t *testing.T) {
	ys := shapeCurve(t, "fig5.6").YS
	if len(ys) != 6 {
		t.Fatalf("points = %d", len(ys))
	}
	// Zero think time saturates the server: response/byte at 6 users must
	// be well above 1 user (the thesis's near-linear growth).
	if r1, r6 := ys[0], ys[5]; r6 < r1*2 {
		t.Errorf("extremely heavy: 6-user response/byte %v not >> 1-user %v", r6, r1)
	}
	// Increasing overall trend. At this reduced scale individual points
	// are noisy (the thesis averages 50 sessions per point), so allow up
	// to two small inversions as long as the endpoints grow strongly.
	drops := 0
	for i := 1; i < len(ys); i++ {
		if ys[i] < ys[i-1] {
			drops++
		}
	}
	if drops > 2 {
		t.Errorf("curve not increasing: %v", ys)
	}
}

// slope is a users sweep's rise in response per byte from 1 to 6 users.
func slope(c *CurveResult) float64 { return c.YS[5] - c.YS[0] }

func TestThinkTimeFlattensSlope(t *testing.T) {
	heavy, light := shapeCurve(t, "fig5.6"), shapeCurve(t, "fig5.11")
	// The thesis: "The slopes in these figures are not as large as that in
	// Figure 5.6 because the competition for resources is not as heavy."
	if slope(light) >= slope(heavy) {
		t.Errorf("light slope %v should be below extremely-heavy slope %v", slope(light), slope(heavy))
	}
}

func TestHeavyLightMixesSimilar(t *testing.T) {
	// The thesis observes populations with 5000 vs 20000 µs think times
	// produce similar average response times.
	mean := func(c *CurveResult) float64 {
		var s float64
		for _, y := range c.YS {
			s += y
		}
		return s / float64(len(c.YS))
	}
	ma, mb := mean(shapeCurve(t, "fig5.7")), mean(shapeCurve(t, "fig5.11"))
	if ma > mb*4 || mb > ma*4 {
		t.Errorf("heavy (%v) and light (%v) populations should be same order of magnitude", ma, mb)
	}
}

func TestFig512LargerAccessesAmortize(t *testing.T) {
	ys := shapeCurve(t, "fig5.12").YS
	if len(ys) != 6 {
		t.Fatalf("points = %d", len(ys))
	}
	// Larger access sizes amortize per-call overhead: response/byte at
	// 2048 B must be well below 128 B.
	if small, large := ys[0], ys[5]; large >= small*0.7 {
		t.Errorf("response/byte at 2048 B (%v) should be well below 128 B (%v)", large, small)
	}
}

// TestThinkSweepsFlattenAgainstFig56 closes the ROADMAP validation gap for
// Figures 5.7-5.11: every think-time population's response-per-byte curve
// must rise more gently than Figure 5.6's zero-think curve (the thesis:
// "the slopes in these figures are not as large as that in Figure 5.6
// because the competition for resources is not as heavy"), and the
// mostly-light mixes must flatten further than the all-heavy one.
func TestThinkSweepsFlattenAgainstFig56(t *testing.T) {
	zero := shapeCurve(t, "fig5.6")
	zeroSlope := slope(zero)
	if zeroSlope <= 0 {
		t.Fatalf("Fig 5.6 curve did not rise: %v", zero.YS)
	}
	sweeps := []string{"fig5.7", "fig5.8", "fig5.9", "fig5.10", "fig5.11"}
	slopes := make([]float64, len(sweeps))
	for i, name := range sweeps {
		c := shapeCurve(t, name)
		if len(c.YS) != 6 {
			t.Fatalf("%s: points = %d, want 6", name, len(c.YS))
		}
		for j, y := range c.YS {
			if y <= 0 {
				t.Fatalf("%s: non-positive response/byte at %v users", name, c.XS[j])
			}
		}
		slopes[i] = slope(c)
		// Think time keeps users off the server between calls, so the
		// contention curve must be flatter than the zero-think one.
		if slopes[i] >= zeroSlope {
			t.Errorf("%s slope %v not below Fig 5.6's zero-think slope %v", name, slopes[i], zeroSlope)
		}
	}
	// More light users -> less offered load -> flatter: the all-light curve
	// (5.11) must flatten well below the all-heavy one (5.7).
	if slopes[4] >= slopes[0] {
		t.Errorf("Fig 5.11 slope %v should be below Fig 5.7 slope %v", slopes[4], slopes[0])
	}
}

// TestScale51ContentionGrows checks the large-population streaming sweep's
// shape: response time per byte must grow with the population (the
// Figure 5.6 behaviour continued past the published range), and every
// point must have executed work.
func TestScale51ContentionGrows(t *testing.T) {
	c := shapeCurve(t, "scale5.1")
	tb := shapeTable(t, "scale5.1")
	users := []float64{50, 100, 200, 500, 1000}
	if len(c.XS) != len(users) || len(tb.rows) != len(users) {
		t.Fatalf("points = %d, rows = %d", len(c.XS), len(tb.rows))
	}
	for i, x := range c.XS {
		if x != users[i] {
			t.Errorf("point %d users = %v, want %v", i, x, users[i])
		}
		if ops, _ := tb.num(i, "ops"); ops == 0 || c.YS[i] <= 0 {
			t.Errorf("point %d executed no work: %v ops, %v µs/B", i, ops, c.YS[i])
		}
	}
	first, last := c.YS[0], c.YS[len(c.YS)-1]
	if last <= first {
		t.Errorf("contention did not grow: %v users %.2f µs/B vs %v users %.2f µs/B",
			c.XS[0], first, c.XS[len(c.XS)-1], last)
	}
	if c.Render() == "" {
		t.Error("empty render")
	}
}

func TestTable54(t *testing.T) {
	out := shapeRun(t, "table5.4").Render()
	for _, want := range []string{"extremely-heavy", "heavy", "light", "5000", "20000"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFigureDensities(t *testing.T) {
	for _, name := range []string{"fig5.1", "fig5.2"} {
		res, ok := shapeRun(t, name).(*DensitiesResult)
		if !ok {
			t.Fatalf("%s: result type %T, want *DensitiesResult", name, shapeRun(t, name))
		}
		out := res.Render()
		if len(res.Panels) != 3 {
			t.Fatalf("%s: %d panels", res.Title, len(res.Panels))
		}
		if !strings.Contains(out, "f(x)") {
			t.Errorf("%s: no density labels", res.Title)
		}
		// Densities must be non-negative and have mass on [0, 100] (the
		// thesis plots x in 0..100, the range the panels sample).
		for _, p := range res.Panels {
			var mass float64
			for i, y := range p.YS {
				if y < 0 || math.IsNaN(y) {
					t.Fatalf("%s: PDF(%v) = %v", p.Label, p.XS[i], y)
				}
				mass += y
			}
			if mass <= 0 {
				t.Errorf("%s: no mass on [0, 100]", p.Label)
			}
		}
	}
}

// TestDensityPanelKinds pins which specs a density panel plots: every kind
// gds.Compile turns into a distribution with a PDF (uniform included), and
// nothing else. A truncated spec has no PDF, so the scenario fails to build
// rather than rendering its untruncated density.
func TestDensityPanelKinds(t *testing.T) {
	build := func(spec config.DistSpec) (*Scenario, error) {
		return New("density-kinds").Densities("t", DensityPanel{Label: "p", Dist: spec}).Build()
	}
	sc, err := build(config.DistSpec{Kind: config.KindUniform, Lo: 20, Hi: 60})
	if err != nil {
		t.Fatalf("uniform panel: %v", err)
	}
	res, err := Run(context.Background(), sc, Options{})
	if err != nil {
		t.Fatalf("uniform panel: %v", err)
	}
	p := res.(*DensitiesResult).Panels[0]
	for i, x := range p.XS {
		want := 0.0
		if x >= 20 && x <= 60 {
			want = 1.0 / 40
		}
		if p.YS[i] != want {
			t.Fatalf("uniform PDF(%v) = %v, want %v", x, p.YS[i], want)
		}
	}

	truncated := config.Exp(20)
	truncated.Min, truncated.Max = 5, 50
	if _, err := build(truncated); !errors.Is(err, ErrScenario) || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("truncated panel: err = %v, want a truncated-density ErrScenario", err)
	}
	const legacy = `density panels support exponential, phase-exp, and gamma kinds, not "constant"`
	if _, err := build(config.DistSpec{Kind: config.KindConstant, Value: 3}); err == nil || !strings.Contains(err.Error(), legacy) {
		t.Errorf("constant panel: err = %v, want %q", err, legacy)
	}
}

// TestRunIndex checks the registry's name index: the static scenarios run
// by name, an unknown name resolves to nothing, and every paper experiment
// is registered.
func TestRunIndex(t *testing.T) {
	for _, name := range []string{"table5.4", "fig5.1", "fig5.2"} {
		sc, ok := Lookup(name)
		if !ok {
			t.Fatalf("%s: not registered", name)
		}
		res, err := Run(context.Background(), sc, Options{Scale: 0.08})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Render() == "" {
			t.Errorf("%s: bad result", name)
		}
	}
	if _, ok := Lookup("fig9.9"); ok {
		t.Error("unknown experiment should not resolve")
	}
	if len(Names()) < 14 {
		t.Errorf("names = %v", Names())
	}
}
