package scenario

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenDir holds one recorded Render()+"\n" per registered scenario, at
// goldenOpts.
const goldenDir = "testdata/render"

var goldenOpts = Options{Scale: 0.05}

// TestBuiltinsMatchRenderedGolden pins every registered scenario's rendered
// output byte for byte to its recorded file in testdata/render, at
// sequential and heavily parallel point fan-out. A drift in spec
// construction, seed salting, fault-plan shape, metric extraction, or cell
// formatting shows up here as a diff; so does a scenario registered without
// a golden file, or a golden file left behind by a removed scenario.
//
// The files are the artifact pipeline's logs. Regenerate them only for an
// intended output change:
//
//	go run ./cmd/wlgen paper -out /tmp/g -stamp render -scale 0.05 -parallel 1
//	rm internal/scenario/testdata/render/*.txt
//	cp /tmp/g/render/logs/*.txt internal/scenario/testdata/render/
func TestBuiltinsMatchRenderedGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every registered scenario twice")
	}
	names := Names()
	registered := make(map[string]bool, len(names))
	for _, name := range names {
		registered[name] = true
	}
	files, err := filepath.Glob(filepath.Join(goldenDir, "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if name := strings.TrimSuffix(filepath.Base(f), ".txt"); !registered[name] {
			t.Errorf("%s names no registered scenario", f)
		}
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join(goldenDir, name+".txt"))
			if err != nil {
				t.Fatalf("registered scenario has no golden file: %v", err)
			}
			sc, _ := Lookup(name)
			for _, par := range []int{1, 8} {
				opts := goldenOpts
				opts.Parallelism = par
				res, err := Run(context.Background(), sc, opts)
				if err != nil {
					t.Fatalf("parallel %d: %v", par, err)
				}
				if got := res.Render() + "\n"; got != string(want) {
					t.Errorf("parallel %d: output diverges from %s/%s.txt at %s",
						par, goldenDir, name, firstDiff(string(want), got))
				}
			}
		})
	}
}

// firstDiff describes the first line where two renders differ.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d\n--- golden ---\n%s\n--- got ---\n%s", i+1, wl, gl)
		}
	}
	return "end of output"
}
