// Package compare implements the thesis's §5.3 file-system comparison
// procedure as a library: run the SAME user population (same spec, same
// seed, same distributions) against several candidate file systems, measure
// each, and rank the results. This is the workflow the thesis proposes for
// a laboratory choosing among file systems, where published benchmarks are
// "too artificial" and trace data cannot be rescaled to a different number
// of users. In the DES→workload→trace→analysis pipeline this is an
// analysis-stage consumer: it runs the pipeline once per candidate file
// system and ranks the resulting analyses.
package compare

import (
	"fmt"
	"sort"
	"strings"

	"uswg/internal/config"
	"uswg/internal/core"
	"uswg/internal/report"
)

// Candidate is one file system configuration under comparison. Mutate
// receives a copy of the base spec and adjusts only the file system under
// test (step 4/5 of the procedure: "change the file system to another
// candidate, and keep the rest the same").
type Candidate struct {
	Name   string
	Mutate func(*config.Spec)
}

// Measurement is one candidate's result.
type Measurement struct {
	Name string
	// MeanResponse is the mean per-call response time, µs.
	MeanResponse float64
	// ResponsePerByte is the byte-weighted response time, µs/B (the
	// thesis's comparison metric).
	ResponsePerByte float64
	// Makespan is the virtual time the whole workload took, µs.
	Makespan float64
	// Ops and Errors count executed operations.
	Ops    int
	Errors int
}

// Result is a completed comparison.
type Result struct {
	// Measurements are in candidate order.
	Measurements []Measurement
}

// Ranked returns the measurements sorted by ResponsePerByte, best first.
func (r *Result) Ranked() []Measurement {
	out := make([]Measurement, len(r.Measurements))
	copy(out, r.Measurements)
	sort.Slice(out, func(i, j int) bool { return out[i].ResponsePerByte < out[j].ResponsePerByte })
	return out
}

// Best returns the winning candidate's name (empty for an empty result).
func (r *Result) Best() string {
	ranked := r.Ranked()
	if len(ranked) == 0 {
		return ""
	}
	return ranked[0].Name
}

// Render prints the comparison, ranked best-first.
func (r *Result) Render() string {
	ranked := r.Ranked()
	rows := make([][]string, len(ranked))
	for i, m := range ranked {
		rows[i] = []string{
			m.Name,
			report.F(m.ResponsePerByte),
			report.F(m.MeanResponse),
			report.F(m.Makespan / 1e6),
			fmt.Sprint(m.Ops),
		}
	}
	var b strings.Builder
	b.WriteString("file system comparison (same workload, ranked by µs/byte)\n")
	b.WriteString(report.Table([]string{"candidate", "µs/byte", "mean resp (µs)", "makespan (s)", "ops"}, rows))
	return b.String()
}

// Run executes the comparison: for each candidate, clone the base spec,
// apply the candidate's mutation, run the full workload, and record the
// measurements. The base spec is never modified.
func Run(base *config.Spec, candidates []Candidate) (*Result, error) {
	if err := base.Validate(); err != nil {
		return nil, err
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("compare: no candidates")
	}
	res := &Result{}
	for _, c := range candidates {
		spec := cloneSpec(base)
		if c.Mutate != nil {
			c.Mutate(spec)
		}
		gen, err := core.NewGenerator(spec)
		if err != nil {
			return nil, fmt.Errorf("compare: %s: %w", c.Name, err)
		}
		run, err := gen.Run()
		if err != nil {
			return nil, fmt.Errorf("compare: %s: %w", c.Name, err)
		}
		a := run.Analysis
		res.Measurements = append(res.Measurements, Measurement{
			Name:            c.Name,
			MeanResponse:    a.Response.Mean(),
			ResponsePerByte: a.MeanResponsePerByte(),
			Makespan:        run.VirtualDuration,
			Ops:             a.Ops,
			Errors:          a.Errors,
		})
	}
	return res, nil
}

// cloneSpec deep-copies the parts of a spec that candidates may mutate.
func cloneSpec(s *config.Spec) *config.Spec {
	cp := *s
	cp.UserTypes = append([]config.UserType(nil), s.UserTypes...)
	cp.Categories = append([]config.Category(nil), s.Categories...)
	cp.Ext.ThinkFactors = append([]float64(nil), s.Ext.ThinkFactors...)
	return &cp
}
