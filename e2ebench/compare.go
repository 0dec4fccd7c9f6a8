package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// compareMain compares the untraced results of two sets of runs, one
// directory of written reports each, metric by metric and workload by
// workload. It refuses when the runs were measured at different GOMAXPROCS:
// the conv weight-gradient reduction, and with it the training loss,
// depends on the thread count.
func compareMain(args []string, out io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: e2ebench compare <results-dir-A> <results-dir-B>")
		return 2
	}
	sets := make([][]report, 2)
	procs := map[int]bool{}
	for i, dir := range args {
		rs, err := loadReports(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			return 1
		}
		for _, r := range rs {
			procs[r.Envelope.GOMAXPROCS] = true
		}
		sets[i] = rs
	}
	if len(procs) > 1 {
		fmt.Fprintf(os.Stderr, "e2ebench: refusing to compare runs measured at different GOMAXPROCS %v\n", keys(procs))
		return 2
	}
	fmt.Fprintf(out, "%-12s %-22s %12s %12s %12s %12s %8s\n", "workload", "metric", "A median", "A IQR", "B median", "B IQR", "B/A")
	for _, w := range workloads {
		for _, m := range endToEnd {
			var med, iqr [2]float64
			for i, rs := range sets {
				var vals []float64
				for _, r := range rs {
					if v, ok := r.Metrics[m.Name]; ok && r.Envelope.Workload == w.Name {
						vals = append(vals, v.Value)
					}
				}
				q1, q3 := quartiles(vals)
				med[i], iqr[i] = median(vals), q3-q1
			}
			ratio := med[1] / med[0]
			fmt.Fprintf(out, "%-12s %-22s %12.4f %12.4f %12.4f %12.4f %8.4f\n", w.Name, m.Name, med[0], iqr[0], med[1], iqr[1], ratio)
		}
	}
	return 0
}

// loadReports reads the untraced reports written into dir.
func loadReports(dir string) ([]report, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*-trace0.json"))
	if err != nil {
		return nil, fmt.Errorf("load reports: %w", err)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("load reports: no untraced reports in %s", dir)
	}
	var out []report
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, fmt.Errorf("load reports: %w", err)
		}
		var r report
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("load reports: %s: %w", p, err)
		}
		out = append(out, r)
	}
	return out, nil
}

func keys(m map[int]bool) []int {
	var ks []int
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}
