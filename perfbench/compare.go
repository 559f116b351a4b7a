package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// benchSpec is the part of BENCHMARK.json compare mode reads: each
// end-to-end metric's direction and regression bound.
type benchSpec struct {
	EndToEnd []boundDef `json:"end_to_end"`
}

type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// specPath is the benchmark definition compare mode takes the bounds
// from, relative to the repository root that run.py runs from.
const specPath = "BENCHMARK.json"

// compareMain compares two result sets, each a file or a directory of
// files holding the output of benchmark runs (any text; the record
// lines are picked out). It prints, per workload, each end-to-end
// metric's median and quartiles on both sides and their ratio, marks
// a metric unresolved when either side's spread exceeds its bound,
// and lists the per-layer medians of the traced runs. It exits 1 when
// a resolved metric regressed by more than its bound.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare BASE CHANGE")
		return 2
	}
	raw, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %s: %v\n", specPath, err)
		return 2
	}
	base, err := loadRecords(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 2
	}
	change, err := loadRecords(args[1])
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 2
	}
	if compare(stdout, spec, base, change) {
		return 1
	}
	return 0
}

// loadRecords reads every run record in a file or a directory's files,
// leaving out failed runs and noisy ones (see readFigures.Noisy).
func loadRecords(path string) ([]*result, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		entries, err := os.ReadDir(path)
		if err != nil {
			return nil, err
		}
		files = files[:0]
		for _, e := range entries {
			if !e.IsDir() {
				files = append(files, filepath.Join(path, e.Name()))
			}
		}
	}
	var out []*result
	for _, f := range files {
		rs, err := readRecords(f)
		if err != nil {
			return nil, err
		}
		out = append(out, rs...)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no run records", path)
	}
	return out, nil
}

func readRecords(path string) ([]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, `{"perfbench_record"`) {
			continue
		}
		var rec recordLine
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Record.Correct && !rec.Record.Reads.Noisy {
			out = append(out, rec.Record)
		}
	}
	return out, sc.Err()
}

// valuesOf collects one metric over the records of a workload.
func valuesOf(rs []*result, workload string, traced bool, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if r.Workload != workload || r.Traced != traced {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v)
		}
	}
	return out
}

// compare prints the comparison and reports whether any resolved
// end-to-end metric regressed beyond its bound.
func compare(w io.Writer, spec benchSpec, base, change []*result) bool {
	var wls []string
	for _, r := range slices.Concat(base, change) {
		if !slices.Contains(wls, r.Workload) {
			wls = append(wls, r.Workload)
		}
	}
	slices.Sort(wls)
	regressed := false
	for _, wl := range wls {
		fmt.Fprintf(w, "== %s (base runs %d, change runs %d)\n", wl,
			len(valuesOf(base, wl, false, "setup_s")), len(valuesOf(change, wl, false, "setup_s")))
		fmt.Fprintf(w, "  %-16s %-34s %-34s %9s %7s  %s\n", "metric", "base median [q1, q3]", "change median [q1, q3]", "ratio", "bound", "verdict")
		for _, m := range spec.EndToEnd {
			b := valuesOf(base, wl, false, m.Name)
			c := valuesOf(change, wl, false, m.Name)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			verdict, bad := judge(b, c, m.Better, m.Bound)
			regressed = regressed || bad
			fmt.Fprintf(w, "  %-16s %-34s %-34s %9.4f %7.3f  %s\n", m.Name, spread(b), spread(c),
				ratio(median(c), median(b)), m.Bound, verdict)
		}
		var lines []string
		for _, d := range perLayer {
			b := valuesOf(base, wl, true, d.name)
			c := valuesOf(change, wl, true, d.name)
			if len(b) == 0 || len(c) == 0 || (median(b) == 0 && median(c) == 0) {
				continue
			}
			mb, mc := median(b), median(c)
			lines = append(lines, fmt.Sprintf("    %-32s %12.5g → %12.5g %s  (%+.1f%%)", d.name, mb, mc, d.unit, 100*(ratio(mc, mb)-1)))
		}
		if len(lines) > 0 {
			fmt.Fprintln(w, "  per-layer medians of the traced runs (base → change):")
			for _, l := range lines {
				fmt.Fprintln(w, l)
			}
		}
	}
	return regressed
}

// judge classifies a metric: unresolved when either side's quartile
// spread exceeds the bound (unless every change run beats every base
// run), regressed when the change median is worse than the base
// median by more than the bound.
func judge(base, change []float64, better string, bound float64) (string, bool) {
	mb, mc := median(base), median(change)
	worse := ratio(mc, mb) - 1 // share by which the change is higher
	if better == "higher" {
		worse = -worse
	}
	if relSpread(base) > bound || relSpread(change) > bound {
		if allBetter(base, change, better) {
			return "better in every run (spread above bound)", false
		}
		return "unresolved (spread above bound)", false
	}
	switch {
	case worse > bound:
		return fmt.Sprintf("REGRESSED by %.1f%%", 100*worse), true
	case worse < -bound:
		return fmt.Sprintf("improved by %.1f%%", -100*worse), false
	default:
		return "within bound", false
	}
}

func allBetter(base, change []float64, better string) bool {
	if better == "higher" {
		return slices.Min(change) > slices.Max(base)
	}
	return slices.Max(change) < slices.Min(base)
}

// relSpread is the quartile spread as a share of the median.
func relSpread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

func spread(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g]", q2, q1, q3)
}
