package core

import (
	"math"
	"sort"
	"strings"
	"testing"

	"uswg/internal/config"
	"uswg/internal/fault"
)

// TestWeightedMeanSingleReporterIsExact: one reporter's weighted mean is its
// own value bit for bit, although 0.1·3/3 rounds to another float.
func TestWeightedMeanSingleReporterIsExact(t *testing.T) {
	v, w := 0.1, 3.0
	if v*w/w == v {
		t.Fatal("v·w/w == v for these inputs; the check is vacuous")
	}
	var s metricSet
	s.weighted("x", v, w)
	if got, _ := s.snapshot().Value("x"); math.Float64bits(got) != math.Float64bits(v) {
		t.Errorf("single-reporter weighted mean = %v, want %v", got, v)
	}
}

// TestWeightedMeanZeroWeightIsZero: reporters that all carry zero weight (no
// calls on any island) fold to 0, not NaN.
func TestWeightedMeanZeroWeightIsZero(t *testing.T) {
	var s metricSet
	s.weighted("x", 5, 0)
	s.weighted("x", 7, 0)
	if got, ok := s.snapshot().Value("x"); !ok || got != 0 {
		t.Errorf("zero-weight mean = %v (present %v), want 0", got, ok)
	}
}

// TestFoldsOverReporters pins each fold over two reporters.
func TestFoldsOverReporters(t *testing.T) {
	var s metricSet
	s.sum("sum", 2)
	s.sum("sum", 3)
	s.mean("mean", 2)
	s.mean("mean", 3)
	s.weighted("weighted", 2, 1)
	s.weighted("weighted", 4, 3)
	m := s.snapshot()
	for name, want := range map[string]float64{"sum": 5, "mean": 2.5, "weighted": 3.5} {
		if got, _ := m.Value(name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// TestMetricTwoFoldsPanics: a name reported under two folds is a
// programming error, not a silent mix.
func TestMetricTwoFoldsPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), `"x"`) {
			t.Errorf("recover() = %v, want a panic naming the metric", r)
		}
	}()
	var s metricSet
	s.sum("x", 1)
	s.mean("x", 1)
}

// TestMetricsSnapshotShape: the snapshot is nil before Run, sorted with
// unique names after it, and has an entry exactly for the layers the run
// has: server and link entries in NFS mode only, the fault entry only with
// a fault plan.
func TestMetricsSnapshotShape(t *testing.T) {
	run := func(spec *config.Spec) Metrics {
		t.Helper()
		gen, err := NewGenerator(spec)
		if err != nil {
			t.Fatal(err)
		}
		if gen.Metrics() != nil {
			t.Error("snapshot before Run")
		}
		if _, err := gen.Run(); err != nil {
			t.Fatal(err)
		}
		m := gen.Metrics()
		if !sort.SliceIsSorted(m, func(i, j int) bool { return m[i].Name < m[j].Name }) {
			t.Errorf("snapshot not sorted: %v", m)
		}
		for i := 1; i < len(m); i++ {
			if m[i].Name == m[i-1].Name {
				t.Errorf("duplicate entry %q", m[i].Name)
			}
		}
		return m
	}
	has := func(m Metrics, name string) bool { _, ok := m.Value(name); return ok }

	nfsRun := run(smallSpec())
	for _, name := range []string{"usim.ops", "fsc.build_ops", "nfs.server.calls", "nfs.server.nfsd_wait_us", "netsim.drops"} {
		if !has(nfsRun, name) {
			t.Errorf("NFS run lacks %q", name)
		}
	}
	if has(nfsRun, "fault.outage_drops") {
		t.Error("healthy run reports a fault entry")
	}
	if calls, _ := nfsRun.Value("nfs.server.calls"); calls == 0 {
		t.Error("NFS run reports no server calls")
	}

	local := smallSpec()
	local.FS = config.FSSpec{Kind: config.FSLocal}
	localRun := run(local)
	for _, m := range localRun {
		if strings.HasPrefix(m.Name, "nfs.") || strings.HasPrefix(m.Name, "netsim.") {
			t.Errorf("local run reports %q", m.Name)
		}
	}
	if !has(localRun, "usim.ops") {
		t.Error("local run lacks usim.ops")
	}

	faulty := smallSpec()
	faulty.Fault = &fault.Plan{Name: "loss", Rules: []fault.Rule{{
		Name: "loss", Ops: []string{fault.OpNet}, Drop: true, Prob: 0.01,
	}}}
	if !has(run(faulty), "fault.outage_drops") {
		t.Error("fault run lacks fault.outage_drops")
	}
}
