package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// runRecord is one run of one workload as a result file keeps it.
type runRecord struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Invalid   string            `json:"invalid,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Budget    []budgetRow       `json:"budget,omitempty"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Machine machine `json:"machine"`
	Seconds int     `json:"seconds"`
	// Comparable is false for -quick runs: their intervals are too short
	// for the bounds to mean anything.
	Comparable bool        `json:"comparable"`
	Runs       []runRecord `json:"runs"`
}

func readResultFile(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func writeResultFile(path string, f *resultFile) error {
	raw, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// values collects one end-to-end metric of one workload over a file's
// untraced runs.
func (f *resultFile) values(workload, name string) []float64 {
	var vs []float64
	for _, r := range f.Runs {
		if r.Workload != workload || r.Traced {
			continue
		}
		if m, ok := r.Metrics[name]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// verdict judges b against a for one metric. Worse by more than the bound
// is a regression. Where either side's spread (the distance between its
// quartiles as a share of its median) is wider than the bound the result is
// unresolved, unless every run of b reads better than every run of a.
func verdict(def metricDef, a, b []float64) (status string, delta float64) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return "unresolved", 0
	}
	delta = (mb - ma) / ma
	worse := delta
	if def.Better == "higher" {
		worse = -delta
	}
	if spread(a) > def.Bound || spread(b) > def.Bound {
		if !allBetter(def, a, b) {
			return "unresolved", delta
		}
		return "ok", delta
	}
	if worse > def.Bound {
		return "regressed", delta
	}
	return "ok", delta
}

// spread is (Q3 - Q1) / median; a single run has none to show.
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(vs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

func allBetter(def metricDef, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if (def.Better == "lower" && y >= x) || (def.Better == "higher" && y <= x) {
				return false
			}
		}
	}
	return true
}

// compareFiles prints, one workload per row group, both medians of every
// end-to-end metric, the change, the bound and the verdict. It returns the
// number of regressions, and refuses files that cannot be compared.
func compareFiles(out io.Writer, pathA, pathB string) (regressions int, err error) {
	a, err := readResultFile(pathA)
	if err != nil {
		return 0, err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return 0, err
	}
	if ok, field := sameMachine(a.Machine, b.Machine); !ok {
		return 0, fmt.Errorf("machine blocks differ in %s: results from different machines are not compared", field)
	}
	if !a.Comparable || !b.Comparable {
		return 0, fmt.Errorf("a -quick result is for smoke use only and is not compared")
	}
	if a.Seconds != b.Seconds {
		return 0, fmt.Errorf("measured intervals differ (%d s and %d s)", a.Seconds, b.Seconds)
	}
	fmt.Fprintf(out, "a: %s (%s)   b: %s (%s)\n", pathA, a.Machine.GitRev, pathB, b.Machine.GitRev)
	for _, w := range workloads {
		if len(a.values(w.name, "setup_s")) == 0 || len(b.values(w.name, "setup_s")) == 0 {
			continue
		}
		fmt.Fprintf(out, "\n%s\n  %-24s %14s %14s %9s %7s  %s\n", w.name, "metric", "a (median)", "b (median)", "change", "bound", "verdict")
		for _, def := range endToEnd {
			va, vb := a.values(w.name, def.Name), b.values(w.name, def.Name)
			status, delta := verdict(def, va, vb)
			if status == "regressed" {
				regressions++
			}
			fmt.Fprintf(out, "  %-24s %14.4f %14.4f %+8.2f%% %6.0f%%  %s (%s, n=%d/%d)\n",
				def.Name, median(va), median(vb), 100*delta, 100*def.Bound, status, def.Unit, len(va), len(vb))
		}
	}
	return regressions, nil
}
