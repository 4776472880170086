package compare

import (
	"strings"
	"testing"

	"uswg/internal/config"
)

func baseSpec() *config.Spec {
	spec := config.Default()
	spec.Users = 2
	spec.Sessions = 10
	spec.SystemFiles = 30
	spec.FilesPerUser = 25
	return spec
}

func TestRunRanksCandidates(t *testing.T) {
	res, err := Run(baseSpec(), []Candidate{
		{Name: "local", Mutate: func(s *config.Spec) { s.FS = config.FSSpec{Kind: config.FSLocal} }},
		{Name: "nfs", Mutate: nil},
		{Name: "nfs-no-cache", Mutate: func(s *config.Spec) {
			s.FS.Server.CacheBlocks = 0
			s.FS.Client.CacheBlocks = 0
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Measurements) != 3 {
		t.Fatalf("measurements = %d", len(res.Measurements))
	}
	// The local file system avoids the wire entirely; it must win.
	if best := res.Best(); best != "local" {
		t.Errorf("best = %q, want local (got %+v)", best, res.Ranked())
	}
	// Disabling both caches must be the worst NFS variant.
	ranked := res.Ranked()
	if ranked[len(ranked)-1].Name != "nfs-no-cache" {
		t.Errorf("worst = %q, want nfs-no-cache", ranked[len(ranked)-1].Name)
	}
	out := res.Render()
	for _, want := range []string{"local", "nfs", "nfs-no-cache", "µs/byte"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRunLeavesBaseSpecUntouched(t *testing.T) {
	base := baseSpec()
	origNFSDs := base.FS.Server.NFSDs
	_, err := Run(base, []Candidate{
		{Name: "mutant", Mutate: func(s *config.Spec) {
			s.FS.Server.NFSDs = 1
			s.UserTypes[0].Fraction = 1
			s.Categories[0].PercentUsers = 1
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if base.FS.Server.NFSDs != origNFSDs {
		t.Error("base FS spec mutated")
	}
	if base.Categories[0].PercentUsers == 1 {
		t.Error("base categories mutated")
	}
}

func TestRunSameSeedSameWorkload(t *testing.T) {
	// Identical candidates must produce identical measurements: the
	// procedure's validity rests on every candidate seeing the same
	// operation stream.
	res, err := Run(baseSpec(), []Candidate{
		{Name: "a", Mutate: nil},
		{Name: "b", Mutate: nil},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := res.Measurements[0], res.Measurements[1]
	if a.Ops != b.Ops || a.ResponsePerByte != b.ResponsePerByte || a.Makespan != b.Makespan {
		t.Errorf("identical candidates measured differently:\n%+v\n%+v", a, b)
	}
}

func TestRunValidation(t *testing.T) {
	bad := baseSpec()
	bad.Users = 0
	if _, err := Run(bad, []Candidate{{Name: "x"}}); err == nil {
		t.Error("invalid base spec should fail")
	}
	if _, err := Run(baseSpec(), nil); err == nil {
		t.Error("no candidates should fail")
	}
	if _, err := Run(baseSpec(), []Candidate{
		{Name: "broken", Mutate: func(s *config.Spec) { s.FS.Kind = "bogus" }},
	}); err == nil {
		t.Error("broken candidate should fail")
	}
}

func TestEmptyResultBest(t *testing.T) {
	var r Result
	if r.Best() != "" {
		t.Error("empty result should have no best")
	}
}

// TestRunStreamingSpec: a spec that streams its trace keeps no log, and the
// comparison still counts every executed op, the same count a full-record
// log of the same workload holds.
func TestRunStreamingSpec(t *testing.T) {
	run := func(mode string) Measurement {
		t.Helper()
		spec := config.Default()
		spec.Sessions = 8
		spec.Trace.Mode = mode
		res, err := Run(spec, []Candidate{{Name: "nfs"}})
		if err != nil {
			t.Fatal(err)
		}
		return res.Measurements[0]
	}
	streamed, logged := run(config.TraceStream), run(config.TraceLog)
	if streamed.Ops == 0 || streamed.Ops != logged.Ops {
		t.Errorf("streaming run counts %d ops, log run %d", streamed.Ops, logged.Ops)
	}
}
