package scenario

import (
	"context"
	"strings"
	"testing"

	"uswg/internal/config"
)

// TestFleetScenarioDeterministicAcrossParallelism is the scale-out
// acceptance bar: a sweep over a pooled multi-island fleet renders
// byte-identically at any parallelism.
func TestFleetScenarioDeterministicAcrossParallelism(t *testing.T) {
	sc := New("fleet-det-test").
		SessionsFromUsers().Files(30, 6).Stream().
		Population(config.ExtremelyHeavyPopulation()).
		Servers(4).ClientPool(4).
		SweepUsers(8, 16, 32).Salt(SaltUsers, 31, 2).
		Curve("fleet determinism", MetricUsers, "users", "µs/byte", MetricRPB).
		Col("users", MetricUsers, FormatInt).
		Col("µs/byte", MetricRPB, FormatF).
		Col("nfsd util", MetricNFSDUtil, FormatPct1).
		MustBuild()
	run := func(par int) string {
		res, err := Run(context.Background(), sc, Options{Parallelism: par, Scale: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		return res.Render()
	}
	seq := run(1)
	if seq == "" {
		t.Fatal("empty render")
	}
	for _, par := range []int{4, 8} {
		if got := run(par); got != seq {
			t.Errorf("parallel %d output diverges from sequential:\n%s\nvs\n%s", par, got, seq)
		}
	}
}

// TestSweepServersBind checks the servers axis: each point runs at its own
// island count, and the axis value feeds the point's primary value.
func TestSweepServersBind(t *testing.T) {
	sc := New("sweep-servers-test").
		Users(8).Sessions(8).Files(30, 6).Stream().
		Population(config.ExtremelyHeavyPopulation()).
		ClientPool(4).
		SweepServers(1, 2, 4).Salt(SaltValue, 3, 1).
		Table("servers sweep").
		Col("servers", MetricValue, FormatInt).
		Col("µs/byte", MetricRPB, FormatF).
		MustBuild()
	res, err := Run(context.Background(), sc, Options{Parallelism: 2, Scale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	tab, ok := res.(Tabular)
	if !ok {
		t.Fatalf("result type %T", res)
	}
	_, _, rows := tab.Table()
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	for i, want := range []string{"1", "2", "4"} {
		if rows[i][0] != want {
			t.Errorf("row %d servers = %q, want %q", i, rows[i][0], want)
		}
	}
}

// TestTopologyWorkloadValidation covers the one-block rule at the scenario
// layer (topology inline or inside fs, not both) and the sweep-axis integer
// requirements.
func TestTopologyWorkloadValidation(t *testing.T) {
	base := func() *Scenario {
		return &Scenario{
			Name: "topo-val",
			Base: Workload{Users: 2, Sessions: 4},
			Output: Output{Kind: KindTable, Title: "t",
				Columns: []Column{{Header: "ops", Metric: MetricOps, Format: FormatInt}}},
		}
	}
	t.Run("valid topology", func(t *testing.T) {
		sc := base()
		sc.Base.Topology = &config.Topology{Servers: 2, ClientPool: 4}
		if err := sc.Validate(); err != nil {
			t.Errorf("unexpected error: %v", err)
		}
	})
	t.Run("topology inline and inside fs", func(t *testing.T) {
		sc := base()
		fs := config.Default().FS
		fs.Topology = &config.Topology{Servers: 2}
		sc.Base.FS = &fs
		sc.Base.Topology = &config.Topology{Servers: 4}
		if err := sc.Validate(); err == nil {
			t.Error("expected double-topology rejection")
		}
	})
	t.Run("invalid topology", func(t *testing.T) {
		sc := base()
		sc.Base.Topology = &config.Topology{Placement: "scatter"}
		if err := sc.Validate(); err == nil {
			t.Error("expected placement rejection")
		}
	})
	t.Run("fractional servers axis", func(t *testing.T) {
		sc := base()
		sc.Sweep = []Axis{{Name: "servers", Values: []float64{1.5}, Bind: BindServers}}
		if err := sc.Validate(); err == nil {
			t.Error("expected integer-axis rejection")
		}
	})
	t.Run("zero pool axis", func(t *testing.T) {
		sc := base()
		sc.Sweep = []Axis{{Name: "pool", Values: []float64{0}, Bind: BindClientPool}}
		if err := sc.Validate(); err == nil {
			t.Error("expected positive-axis rejection")
		}
	})
}

// TestWorkloadTopologyNFSDsRejected pins the one spelling of the daemon
// count: the workload's nfsds field. A scenario that writes it inside the
// topology block fails to decode with an unknown-field error.
func TestWorkloadTopologyNFSDsRejected(t *testing.T) {
	sc, ok := Lookup("scale5.2pool")
	if !ok {
		t.Fatal("scale5.2pool not registered")
	}
	raw, err := sc.JSON()
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	if _, err := Decode(strings.NewReader(doc)); err != nil {
		t.Fatalf("registered scenario does not decode: %v", err)
	}
	const shape = `"servers": 4`
	if !strings.Contains(doc, shape) {
		t.Fatalf("scale5.2pool lacks %s:\n%s", shape, doc)
	}
	bad := strings.Replace(doc, shape, shape+`, "nfsds": 2`, 1)
	if _, err := Decode(strings.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Errorf("workload topology.nfsds: err = %v, want an unknown-field error", err)
	}
}
