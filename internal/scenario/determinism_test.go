package scenario

import (
	"context"
	"reflect"
	"testing"
)

// runAt runs a registered scenario at goldenOpts with the given point
// fan-out.
func runAt(t *testing.T, name string, parallelism int) Result {
	t.Helper()
	sc, ok := Lookup(name)
	if !ok {
		t.Fatalf("no registered scenario %s", name)
	}
	opts := goldenOpts
	opts.Parallelism = parallelism
	res, err := Run(context.Background(), sc, opts)
	if err != nil {
		t.Fatalf("%s at parallel %d: %v", name, parallelism, err)
	}
	return res
}

// requireParallelismInvariant runs each scenario at Parallelism 1 and 8 and
// requires the full results — not only their renders — to be identical.
func requireParallelismInvariant(t *testing.T, names ...string) {
	t.Helper()
	for _, name := range names {
		seq, par := runAt(t, name, 1), runAt(t, name, 8)
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("%s diverges across parallelism:\nseq=%+v\npar=%+v", name, seq, par)
		}
	}
}

// requireRepeatable runs one scenario twice with identical options and
// requires the results to match bit for bit.
func requireRepeatable(t *testing.T, name string) {
	t.Helper()
	a, b := runAt(t, name, 0), runAt(t, name, 0)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("repeated %s runs diverge:\nfirst=%+v\nsecond=%+v", name, a, b)
	}
}

// TestSweepParallelismDeterminism locks in the parallel fan-out's contract:
// every sweep point carries its own derived seed, so Parallelism=1 and
// Parallelism=8 must produce bit-identical results.
func TestSweepParallelismDeterminism(t *testing.T) {
	requireParallelismInvariant(t, "table5.3", "fig5.6", "fig5.12")
}

// TestFaultParallelismDeterminism extends the parallel-fan-out contract to
// the fault5.x resilience family: every grid point carries its own derived
// generator and fault-engine seeds, so injected faults — error draws,
// retransmissions, sticky onsets — replay identically at any parallelism.
func TestFaultParallelismDeterminism(t *testing.T) {
	requireParallelismInvariant(t, "fault5.1", "fault5.3", "fault5.4")
}

// TestScale51ParallelismDeterminism extends the fan-out contract to the
// streaming large-population sweep: every point carries its own seed and
// its own Summarizer, so the 1000-user streaming point must render
// identically at any parallelism.
func TestScale51ParallelismDeterminism(t *testing.T) {
	seq, par := runAt(t, "scale5.1", 1), runAt(t, "scale5.1", 8)
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("scale5.1 diverges across parallelism:\nseq=%+v\npar=%+v", seq, par)
	}
	if seq.Render() != par.Render() {
		t.Error("scale5.1 rendered output diverges across parallelism")
	}
}

// TestFaultRepeatedRunsIdentical re-runs the sticky-outage experiment with
// identical options: the sticky onset is a seeded draw, so the whole
// degraded tail must reproduce bit for bit.
func TestFaultRepeatedRunsIdentical(t *testing.T) {
	requireRepeatable(t, "fault5.4")
}

// TestSweepRepeatedRunsIdentical re-runs one sweep with identical options:
// the points must match bit for bit (the repeated-run determinism of the
// whole GDS + FSC + USIM + DES stack).
func TestSweepRepeatedRunsIdentical(t *testing.T) {
	requireRepeatable(t, "fig5.6")
}
