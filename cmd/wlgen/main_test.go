package main

import (
	"bytes"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"uswg/internal/config"
	"uswg/internal/core"
	"uswg/internal/report"
)

// summarize runs the default spec, shrunk to 4 users and 120 sessions, on
// the given number of server islands and returns printSummary's output.
func summarize(t *testing.T, servers int) (string, *core.Generator) {
	t.Helper()
	spec := config.Default()
	spec.Users = 4
	spec.Sessions = 120
	if servers > 1 {
		spec.FS.Topology = &config.Topology{Servers: servers}
	}
	gen, err := core.NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gen.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	printSummary(&buf, spec, res, gen)
	return buf.String(), gen
}

// TestSummaryReportsEveryIsland checks that a multi-island run prints one
// server line per island and that their RPC counts add up to the fleet's.
func TestSummaryReportsEveryIsland(t *testing.T) {
	out, gen := summarize(t, 2)
	servers := gen.Servers()
	if len(servers) != 2 {
		t.Fatalf("%d servers, want 2", len(servers))
	}
	var want, got int64
	for _, srv := range servers {
		want += int64(srv.Calls())
	}
	rpcs := regexp.MustCompile(`(?m)^island (\d+): nfs server: (\d+) RPCs,`).FindAllStringSubmatch(out, -1)
	if len(rpcs) != len(servers) {
		t.Fatalf("%d island server lines, want %d:\n%s", len(rpcs), len(servers), out)
	}
	for i, m := range rpcs {
		n, _ := strconv.ParseInt(m[2], 10, 64)
		if m[1] != strconv.Itoa(i) || n != int64(servers[i].Calls()) {
			t.Errorf("line %d reports island %s with %d RPCs, want island %d with %d", i, m[1], n, i, servers[i].Calls())
		}
		got += n
	}
	if got != want {
		t.Errorf("island RPCs sum to %d, servers served %d:\n%s", got, want, out)
	}
	if n := strings.Count(out, "server cache hit rate:"); n != len(servers) {
		t.Errorf("%d cache lines, want %d:\n%s", n, len(servers), out)
	}
}

// TestSummarySingleIslandFormat checks that a one-island run keeps the
// unlabelled server and cache lines.
func TestSummarySingleIslandFormat(t *testing.T) {
	out, gen := summarize(t, 1)
	srv := gen.Servers()[0]
	want := fmt.Sprintf("nfs server: %d RPCs, nfsd utilization %.1f%%, mean daemon wait %s µs\n"+
		"server cache hit rate: %.1f%%\n",
		srv.Calls(), 100*srv.NFSDUtilization(), report.F(srv.MeanNFSDWait()), 100*srv.Cache().HitRate())
	if !strings.HasSuffix(out, want) {
		t.Errorf("summary does not end with\n%s\ngot:\n%s", want, out)
	}
	if strings.Contains(out, "island") {
		t.Errorf("one-island summary labels islands:\n%s", out)
	}
}
