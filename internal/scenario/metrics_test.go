package scenario

import (
	"context"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"uswg/internal/config"
	"uswg/internal/fault"
)

// metricBitsFile pins the numeric point metrics of every sweep point.
const metricBitsFile = "testdata/metric_bits.txt"

// numericMetrics are the point metrics a column, curve axis or grid cell
// reads as one float64 (every metric but the case label and the two
// mean(std) pairs).
var numericMetrics = []string{
	MetricUsers, MetricValue, MetricSessions, MetricOps, MetricErrors,
	MetricRPB, MetricAvailability, MetricStalls, MetricNFSDWait,
	MetricNFSDUtil, MetricDrops, MetricRetransmits, MetricWriteAvailPre,
	MetricWriteAvailPos, MetricMaterialized, MetricBuildOps,
}

// twoIslandFaultPoint is one log-mode point on a two-island fleet with
// one daemon per server, message loss, server stalls, injected write
// errors and a server outage, so every fleet fold (sum, mean,
// calls-weighted mean) sees two reporters with nonzero counters.
func twoIslandFaultPoint() *Scenario {
	return New("two-island-faults").
		Users(4).SessionsPerUser(10).Files(60, 12).LogTrace().
		Population(config.ExtremelyHeavyPopulation()).
		Servers(2).NFSDs(1).
		Salt(SaltIndex, 3, 11).
		Fault(fault.Plan{
			Name: "two-island-faults",
			Rules: []fault.Rule{
				{Name: "loss", Ops: []string{fault.OpNet}, Drop: true, Prob: 0.02},
				{Name: "stall", Ops: []string{fault.OpRPC}, Prob: 0.02, Latency: 20_000},
				{Name: "eio", Ops: []string{"write"}, Err: fault.EIO, Prob: 0.01},
			},
			ServerOutages: []fault.Outage{{Start: 20e6, End: 25e6}},
			NetTimeout:    100_000,
			NetRetries:    5,
		}, false).
		Table("two-island fault point").
		Col("ops", MetricOps, FormatInt).
		MustBuild()
}

// pointBits renders every numeric metric of one point as float64 bits; a
// metric the point cannot measure (an NFS counter on a local file system,
// write availability on a streaming trace) records "-".
func pointBits(sc *Scenario, opts Options, i int) (string, error) {
	ps, err := sc.compilePoint(opts, i)
	if err != nil {
		return "", err
	}
	p, err := runPoint(ps)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s %d", sc.Name, i)
	for _, m := range numericMetrics {
		if v, err := p.metric(m); err != nil {
			fmt.Fprintf(&b, " %s=-", m)
		} else {
			fmt.Fprintf(&b, " %s=%016x", m, math.Float64bits(v))
		}
	}
	return b.String(), nil
}

// TestMetricBitsPinned checks the float64 bits of the 16 numeric point
// metrics at every point of every registered sweep scenario (at
// goldenOpts) and at a two-island fault point against
// testdata/metric_bits.txt, one line per point. The file was recorded from
// the per-layer metric switch that Generator.Metrics replaced, so it pins
// the snapshot's fleet folds to the old sums and means bit for bit. It is a
// record, not a golden to regenerate: a diff here is a changed measurement.
func TestMetricBitsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every registered sweep point")
	}
	want, err := os.ReadFile(metricBitsFile)
	if err != nil {
		t.Fatal(err)
	}
	// One flat list of points, so single-point scenarios share the workers,
	// run last to first: the registry ends with the heaviest (scale5.x)
	// points, and starting them first keeps the tail short.
	type point struct {
		sc   *Scenario
		opts Options
		idx  int
	}
	var points []point
	add := func(sc *Scenario, opts Options) {
		for i := 0; i < sc.gridSize(); i++ {
			points = append(points, point{sc, opts, i})
		}
	}
	for _, name := range Names() {
		sc, _ := Lookup(name)
		switch sc.Output.Kind {
		case KindTable, KindCurve, KindGrid:
			add(sc, goldenOpts)
		}
	}
	add(twoIslandFaultPoint(), Options{Scale: 1})
	got := make([]string, len(points))
	err = ForEachPoint(context.Background(), Options{}, len(points), func(i int) error {
		i = len(points) - 1 - i
		pt := points[i]
		var err error
		got[i], err = pointBits(pt.sc, pt.opts, pt.idx)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("%d points, %s records %d", len(got), metricBitsFile, len(wantLines))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("point %d:\n got %s\nwant %s", i, got[i], wantLines[i])
		}
	}
}
