// Command perfbench is the repository's benchmark. It runs one named
// workload through the public core.NewGenerator → Generator.Run path and
// prints, as its last line, one JSON object with the run's correctness,
// attempted and failed operation counts, and metrics: the end-to-end
// metrics with -trace 0, the per-layer metrics with -trace 1.
//
//	perfbench -workload paper6 -seed 1 -seconds 20 -trace 0
//
// Every repetition runs in its own child process, so one repetition's peak
// resident set is not another's. run.sh builds the binary and runs it.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed whose digests the benchmark records, and
// heldOutSeed the one kept back so a later claim can be re-checked on a
// seed not used while writing it. reference holds the digest of each
// workload at both seeds, at the workload's full session count.
const (
	defaultSeed = 1
	heldOutSeed = 20260
)

// minReps is the fewest repetitions a timed run makes, however long each
// takes.
const minReps = 3

// deadline bounds a whole run: a child still running then is killed and
// the run fails.
const deadline = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "paper6", "workload name")
		seed    = flag.Uint64("seed", defaultSeed, "workload seed")
		seconds = flag.Float64("seconds", 20, "measuring time, s")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
		child   = flag.String("child", "", "internal: run one repetition (rep) or the traced run (layers) in this process")
		spans   = flag.String("spans", "", "internal: file the traced run writes its spans to")
	)
	flag.Parse()
	w, err := lookup(*name)
	if err != nil {
		return err
	}
	switch *child {
	case "rep":
		r, _ := runRep(w.build(*seed, w.sessions), nil)
		return json.NewEncoder(os.Stdout).Encode(r)
	case "layers":
		r, err := runLayers(w, *seed, *spans)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(r)
	case "":
	default:
		return fmt.Errorf("unknown child mode %q", *child)
	}

	printHost()
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	var res result
	switch *traced {
	case 0:
		res, err = endToEnd(ctx, w, *seed, *seconds)
	case 1:
		res, err = perLayer(ctx, w, *seed, *seconds)
	default:
		return fmt.Errorf("-trace %d: want 0 or 1", *traced)
	}
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// printHost prints the host description that makes numbers from different
// hosts comparable as ratios.
func printHost() {
	fmt.Printf("host: cpu=%q nproc=%d gomaxprocs=%d go=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown" where
// it has none).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// spawn runs this binary in a child mode for the workload, decodes the
// JSON the child prints into v, and returns the child's peak resident set,
// MB.
func spawn(ctx context.Context, mode string, w workload, seed uint64, v any, extra ...string) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	args := append([]string{"-child", mode, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10)}, extra...)
	cmd := exec.CommandContext(ctx, exe, args...)
	// The child dies with this process, so a killed run leaves none behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("%s child of %s: %w", mode, w.name, err)
	}
	if err := json.Unmarshal(out.Bytes(), v); err != nil {
		return 0, fmt.Errorf("%s child of %s: %w", mode, w.name, err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, errors.New("no rusage for the child process")
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports kilobytes
}

// spawnRep runs one repetition in its own process, so its peak resident set
// is its own.
func spawnRep(ctx context.Context, w workload, seed uint64) (repResult, error) {
	var r repResult
	rss, err := spawn(ctx, "rep", w, seed, &r)
	r.PeakRSSMB = rss
	return r, err
}

// timedReps runs repetitions until the next one would end past the
// measuring time, and at least minReps of them.
func timedReps(ctx context.Context, w workload, seed uint64, seconds float64) ([]repResult, error) {
	var reps []repResult
	var walls []float64
	start := time.Now()
	for {
		t := time.Now()
		r, err := spawnRep(ctx, w, seed)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		walls = append(walls, time.Since(t).Seconds())
		if len(reps) >= minReps && time.Since(start).Seconds()+median(walls) > seconds {
			return reps, nil
		}
	}
}

// verify checks every repetition, returning the operation counts, which
// repetitions passed, and why the others failed. At the default and
// held-out seeds each repetition must match the recorded reference digest;
// at any other seed the repetitions must agree with each other.
func verify(w workload, seed uint64, reps []repResult) (attempted, failed int64, ok []bool, problems []string) {
	want, recorded := reference[w.name][seed]
	if !recorded && len(reps) > 0 && reps[0].Err == "" {
		want = reps[0].Stats.digest()
	}
	for i, r := range reps {
		ops := int64(r.Stats.Ops)
		attempted += ops
		why := r.check(want)
		if why != "" {
			problems = append(problems, fmt.Sprintf("repetition %d: %s", i, why))
			failed += ops
		}
		ok = append(ok, why == "")
	}
	if attempted == 0 {
		attempted = 1 // a run that attempted nothing still failed something
		failed = 1
	}
	return attempted, failed, ok, problems
}

// passed returns the repetitions verify passed.
func passed(reps []repResult, ok []bool) []repResult {
	var good []repResult
	for i, r := range reps {
		if ok[i] {
			good = append(good, r)
		}
	}
	return good
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd makes the timed repetitions and reduces them to the end-to-end
// metrics, each the median over the run's repetitions.
func endToEnd(ctx context.Context, w workload, seed uint64, seconds float64) (result, error) {
	reps, err := timedReps(ctx, w, seed, seconds)
	if err != nil {
		return result{}, err
	}
	attempted, failed, ok, problems := verify(w, seed, reps)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench:", w.name, p)
	}
	good := passed(reps, ok)
	med := func(f func(repResult) float64) float64 { return median(column(good, f)) }
	m := map[string]metric{
		"ops_per_s":   {med(func(r repResult) float64 { return ratio(float64(r.Stats.Ops), r.RunS) }), "1/s"},
		"setup_s":     {med(func(r repResult) float64 { return r.SetupS }), "s"},
		"wall_s":      {med(func(r repResult) float64 { return r.SetupS + ratio(r.RunS*w.nominalOps, float64(r.Stats.Ops)) }), "s"},
		"peak_rss_mb": {med(func(r repResult) float64 { return r.PeakRSSMB }), "MB"},
	}
	fmt.Printf("%s seed=%d repetitions=%d digest=%s failed_ops_frac=%g\n",
		w.name, seed, len(reps), reps[0].Stats.digest(), float64(failed)/float64(attempted))
	return result{Correct: len(problems) == 0 && failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// perLayer makes the traced run, then untraced repetitions for the rest of
// the measuring time (the Go runtime counters, and the base of the tracing
// overhead), and reduces them to the per-layer metrics.
func perLayer(ctx context.Context, w workload, seed uint64, seconds float64) (result, error) {
	start := time.Now()
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	spans := filepath.Join(filepath.Dir(exe), fmt.Sprintf("spans-%s-%d.jsonl", w.name, seed))
	var lr layerReport
	if _, err := spawn(ctx, "layers", w, seed, &lr, "-spans", spans); err != nil {
		return result{}, err
	}
	reps, err := timedReps(ctx, w, seed, seconds-time.Since(start).Seconds())
	if err != nil {
		return result{}, err
	}
	attempted, failed, ok, problems := verify(w, seed, append(reps, lr.Traced))
	problems = append(problems, lr.Problems...)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench:", w.name, p)
	}
	attempted += lr.Replayed
	if len(lr.Problems) > 0 {
		failed += lr.Replayed
	}

	m := map[string]metric{}
	for name, v := range lr.Metrics {
		m[name] = metric{v, layerUnits[name]}
	}
	good := passed(reps, ok)
	med := func(f func(repResult) float64) float64 { return median(column(good, f)) }
	setup := med(func(r repResult) float64 { return r.SetupS })
	untraced := med(func(r repResult) float64 { return ratio(float64(r.Stats.Ops), r.RunS) })
	traced := ratio(float64(lr.Traced.Stats.Ops), lr.Traced.RunS)
	set := func(name string, v float64) { m[name] = metric{v, layerUnits[name]} }
	set("core.setup_rest_s", setup-lr.Metrics["gds.build_s"]-lr.Metrics["fsc.build_s"])
	set("trace.overhead_frac", 1-ratio(traced, untraced))
	set("go.setup_allocs", med(func(r repResult) float64 { return float64(r.SetupAllocs) }))
	set("go.setup_bytes", med(func(r repResult) float64 { return float64(r.SetupBytes) }))
	set("go.run_allocs_per_op", med(func(r repResult) float64 { return ratio(float64(r.RunAllocs), float64(r.Stats.Ops)) }))
	set("go.run_bytes_per_op", med(func(r repResult) float64 { return ratio(float64(r.RunBytes), float64(r.Stats.Ops)) }))
	set("go.run_gc_cycles", med(func(r repResult) float64 { return float64(r.RunGC) }))
	set("go.heap_peak_mb", med(func(r repResult) float64 { return r.HeapSysMB }))
	for name := range layerUnits {
		if _, ok := m[name]; !ok {
			return result{}, fmt.Errorf("traced run measured no %s", name)
		}
	}
	if len(m) != len(layerUnits) {
		return result{}, fmt.Errorf("traced run reported %d metrics, want %d", len(m), len(layerUnits))
	}
	fmt.Printf("%s seed=%d traced: repetitions=%d replayed=%d spans=%s\n", w.name, seed, len(reps), lr.Replayed, spans)
	return result{Correct: len(problems) == 0 && failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}
