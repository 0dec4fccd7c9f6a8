// Command e2ebench is the repository's end-to-end benchmark. It trains the
// tiny-profile spiking VGG-16 through the program's own trainer, serves the
// trained model through the compiled engine and the serving layer, checks
// every output, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics of a traced run). BENCHMARK.json at the repository root
// lists the workloads and metrics; workloads.go says why each exists and
// which end-to-end metric each per-layer metric should move.
//
// Usage, from the repository root:
//
//	bash e2ebench/run.sh --workload train-ndsnn --seed 1 --seconds 60 --trace 0
//	bash e2ebench/run.sh compare <results-dir-A> <results-dir-B>
//
// The last line of standard output is the JSON result; the full report
// (envelope, gates, report lines, metrics) is also written under --out.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// envelope identifies where and on what a result was measured.
type envelope struct {
	HostCPUs   int    `json:"host_cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Source is a SHA-256 over the repository's Go sources and go.mod files:
	// the benchmark runs from checkouts without version-control metadata.
	Source   string  `json:"source_sha256"`
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Params   params  `json:"params"`
}

// params are the per-workload parameters recorded with every result.
type params struct {
	Arch           string  `json:"arch"`
	Timesteps      int     `json:"timesteps"`
	BatchSize      int     `json:"batch_size"`
	FinalSparsity  float64 `json:"final_sparsity"`
	Method         string  `json:"method"`
	Epochs         int     `json:"epochs"`
	StepsPerEpoch  int     `json:"steps_per_epoch"`
	MinRounds      int     `json:"min_rounds"`
	ServeRPS       float64 `json:"open_loop_rps"`
	WindowRequests int     `json:"open_loop_window_requests"`
	ClosedWindowS  float64 `json:"closed_loop_window_s"`
	SLOms          float64 `json:"slo_ms"`
	Clients        int     `json:"closed_loop_clients"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type gate struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// report collects one run's results.
type report struct {
	Envelope  envelope               `json:"envelope"`
	Gates     []gate                 `json:"gates"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Lines     []string               `json:"report"`
	specs     map[string]metricSpec
}

func newReport(env envelope, specs []metricSpec) *report {
	r := &report{Envelope: env, Metrics: map[string]metricValue{}, specs: map[string]metricSpec{}}
	for _, s := range specs {
		r.specs[s.Name] = s
	}
	return r
}

// set records a metric of this run's metric list.
func (r *report) set(name string, v float64) {
	s, ok := r.specs[name]
	if !ok {
		panic("e2ebench: metric " + name + " is not in this run's metric list")
	}
	r.Metrics[name] = metricValue{Value: v, Unit: s.Unit}
}

// setIf records a metric when it is in this run's metric list.
func (r *report) setIf(name string, v float64) {
	if _, ok := r.specs[name]; ok {
		r.set(name, v)
	}
}

// check records a correctness gate.
func (r *report) check(name string, ok bool, format string, args ...interface{}) {
	g := gate{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)}
	r.Gates = append(r.Gates, g)
	status := "ok"
	if !ok {
		status = "FAILED"
	}
	r.logf("gate %s: %s (%s)", status, name, g.Detail)
}

// logf prints a report line and keeps it for the written report.
func (r *report) logf(format string, args ...interface{}) {
	line := fmt.Sprintf(format, args...)
	r.Lines = append(r.Lines, line)
	fmt.Println(line)
}

func (r *report) correct() bool {
	for _, g := range r.Gates {
		if !g.OK {
			return false
		}
	}
	return true
}

// complete checks that every metric of the run's list was measured.
func (r *report) complete() {
	var missing []string
	for name := range r.specs {
		if _, ok := r.Metrics[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	r.check("every metric measured", len(missing) == 0, "missing %v", missing)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fl := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload name (see workloads.go)")
	seed := fl.Uint64("seed", 1, "workload seed")
	seconds := fl.Float64("seconds", 30, "measured seconds")
	trace := fl.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	outDir := fl.String("out", ".bench_build/e2ebench", "directory for written reports and spans")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	src, err := sourceHash(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	env := envelope{
		HostCPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Source: src, Workload: w.Name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Params: params{
			Arch: arch, Timesteps: timesteps, BatchSize: batchSize, FinalSparsity: finalSparsity,
			Method: w.Method, Epochs: trainEpochs, StepsPerEpoch: trainSteps, MinRounds: w.MinRounds,
			ServeRPS: w.ServeRPS, WindowRequests: windowRequests, ClosedWindowS: closedWindowDur.Seconds(),
			SLOms: ms(w.SLO), Clients: runtime.GOMAXPROCS(0),
		},
	}
	specs := endToEnd
	if env.Trace {
		specs = perLayer
	}
	rep := newReport(env, specs)
	envJSON, _ := json.Marshal(env)
	rep.logf("envelope %s", envJSON)
	if env.Trace {
		err = runTraced(w, *seed, rep, *outDir)
	} else {
		err = runUntraced(w, *seed, *seconds, rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	if env.Trace {
		for _, m := range perLayer {
			if v, ok := rep.Metrics[m.Name]; ok {
				rep.logf("%-30s %14.4f %-6s should move %s", m.Name, v.Value, m.Unit, m.Moves)
			}
		}
	}
	rep.complete()
	if err := writeReport(rep, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.correct(), rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.correct() {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}

// resultPath is where a run's full report is written.
func resultPath(outDir string, env envelope) string {
	t := 0
	if env.Trace {
		t = 1
	}
	return filepath.Join(outDir, "results", fmt.Sprintf("%s-seed%d-trace%d.json", env.Workload, env.Seed, t))
}

func writeReport(rep *report, outDir string) error {
	path := resultPath(outDir, rep.Envelope)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	return nil
}

// sourceHash fingerprints the Go sources and go.mod files under root,
// skipping hidden directories (build output, version control).
func sourceHash(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("hash sources: %w", err)
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "", fmt.Errorf("hash sources: %w", err)
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
