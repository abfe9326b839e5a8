package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Suite mode: every workload in a fresh child process (so peak RSS,
// set-up time and heap state belong to one workload), repeated, with
// the order rotating between repetitions so no workload always runs on
// a machine the previous one warmed or disturbed.

type suiteConfig struct {
	seed      int64
	seconds   int
	trace     bool
	repeat    int
	varySeed  bool
	outDir    string
	breakGate bool
}

// suiteRun is one child's result.
type suiteRun struct {
	Workload  string             `json:"workload"`
	Rep       int                `json:"rep"`
	Seed      int64              `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Report    report             `json:"report"`
}

// metricSummary is the repeatability view of one (metric, workload).
type metricSummary struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"` // (q3-q1)/median
}

// suiteFile is what a suite run writes and -compare reads.
type suiteFile struct {
	Machine  machineInfo                         `json:"machine"`
	Seed     int64                               `json:"seed"`
	VarySeed bool                                `json:"vary_seed"` // repetition i ran seed+i
	Seconds  int                                 `json:"seconds"`
	Trace    bool                                `json:"trace"`
	Repeat   int                                 `json:"repeat"`
	Claim    *string                             `json:"claim"` // null: this benchmark claims no gain
	Runs     []suiteRun                          `json:"runs"`
	Summary  map[string]map[string]metricSummary `json:"summary"` // workload -> metric
}

func workloadOrder() []string {
	out := make([]string, len(workloadDecls))
	for i, w := range workloadDecls {
		out[i] = w.Name
	}
	return out
}

// runChild runs one workload in a child process and parses the two
// machine-readable lines it ends with.
func runChild(exe string, w string, cfg suiteConfig, stderr io.Writer) (suiteRun, error) {
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	args := []string{"-workload", w, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds), "-trace", trace, "-out", cfg.outDir}
	if cfg.breakGate {
		args = append(args, "-break")
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, stderr
	runErr := cmd.Run()
	run := suiteRun{Workload: w, Seed: cfg.seed}
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "report: "); ok {
			if err := json.Unmarshal([]byte(rest), &run.Report); err != nil {
				return run, fmt.Errorf("%s: report line: %w", w, err)
			}
		}
		last = line
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if runErr != nil {
			return run, fmt.Errorf("%s: child failed without a result: %w", w, runErr)
		}
		return run, fmt.Errorf("%s: result line: %w", w, err)
	}
	run.Correct, run.Attempted, run.Failed = res.Correct, res.Attempted, res.Failed
	run.Metrics = make(map[string]float64, len(res.Metrics))
	for name, mv := range res.Metrics {
		run.Metrics[name] = mv.Value
	}
	return run, nil
}

func summarise(runs []suiteRun) map[string]map[string]metricSummary {
	values := map[string]map[string][]float64{}
	for _, r := range runs {
		if values[r.Workload] == nil {
			values[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			values[r.Workload][name] = append(values[r.Workload][name], v)
		}
	}
	out := map[string]map[string]metricSummary{}
	for w, byMetric := range values {
		out[w] = map[string]metricSummary{}
		for name, vs := range byMetric {
			q1, q2, q3 := quartiles(vs)
			out[w][name] = metricSummary{Unit: unitOf(name), N: len(vs), Median: q2, Q1: q1, Q3: q3, Spread: spread(vs)}
		}
	}
	return out
}

func runSuite(cfg suiteConfig, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if cfg.repeat < 1 {
		cfg.repeat = 1
	}
	order := workloadOrder()
	file := suiteFile{Machine: machine(), Seed: cfg.seed, VarySeed: cfg.varySeed, Seconds: cfg.seconds, Trace: cfg.trace, Repeat: cfg.repeat}
	m := file.Machine
	fmt.Fprintf(stdout, "machine: %d cores, GOMAXPROCS %d, %s, %s/%s, kernel %s, %s\n",
		m.Cores, m.GOMAXPROCS, m.GoVersion, m.OS, m.Arch, m.Kernel, m.Link)
	failed := false
	for rep := 0; rep < cfg.repeat; rep++ {
		for i := range order {
			w := order[(i+rep)%len(order)]
			child := cfg
			if cfg.varySeed {
				child.seed += int64(rep)
			}
			run, err := runChild(exe, w, child, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				return 1
			}
			run.Rep = rep
			file.Runs = append(file.Runs, run)
			verdict := "correct"
			if !run.Correct {
				verdict, failed = "GATE FAILED", true
			}
			fmt.Fprintf(stdout, "rep %d  %-13s %s  attempted %d failed %d\n", rep, w, verdict, run.Attempted, run.Failed)
			if run.Report.Invalid != "" {
				fmt.Fprintf(stdout, "         INVALID: %s\n", run.Report.Invalid)
			}
			for _, v := range run.Report.Violations {
				fmt.Fprintf(stdout, "         VIOLATION: %s\n", v)
			}
		}
	}
	file.Summary = summarise(file.Runs)
	names := e2eNames()
	if cfg.trace {
		names = layerNames()
	}
	for _, w := range order {
		fmt.Fprintf(stdout, "\n%s\n", w)
		fmt.Fprintf(stdout, "  %-40s %16s %16s %16s %8s  %s\n", "metric", "median", "q1", "q3", "spread", "unit")
		for _, name := range names {
			s := file.Summary[w][name]
			fmt.Fprintf(stdout, "  %-40s %16.4f %16.4f %16.4f %7.2f%%  %s\n", name, s.Median, s.Q1, s.Q3, 100*s.Spread, s.Unit)
		}
		for _, r := range file.Runs {
			if r.Workload == w && r.Rep == 0 {
				for _, n := range r.Report.Notes {
					fmt.Fprintf(stdout, "  note: %s\n", n)
				}
			}
		}
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	name := "runs.json"
	if cfg.trace {
		name = "runs-trace.json"
	}
	blob, err := json.MarshalIndent(file, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(cfg.outDir, name), append(blob, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "\nwrote %s\n", filepath.Join(cfg.outDir, name))
	if failed {
		return 1
	}
	return 0
}

// ---- -compare ----

func loadSuite(path string) (*suiteFile, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f suiteFile
	if err := json.Unmarshal(blob, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// verdict classifies one (metric, workload) pair of two result sets:
// unresolved when either side's own spread is wider than the bound
// (the benchmark cannot tell), regressed when b's median is worse than
// a's by more than the bound, within-bound otherwise.
func verdict(d e2eDecl, a, b metricSummary) string {
	if a.Spread > d.Bound || b.Spread > d.Bound {
		return "unresolved"
	}
	if a.Median == 0 {
		return "within-bound"
	}
	worse := (b.Median - a.Median) / a.Median
	if d.Better == "higher" {
		worse = -worse
	}
	if worse > d.Bound {
		return "regressed"
	}
	return "within-bound"
}

func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := loadSuite(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	b, err := loadSuite(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if a.Seconds != b.Seconds || a.Trace != b.Trace {
		fmt.Fprintf(stderr, "benchmark: the two sets were not run with the same settings (seconds %d/%d, trace %v/%v)\n", a.Seconds, b.Seconds, a.Trace, b.Trace)
		return 1
	}
	fmt.Fprintf(stdout, "a: %s (seed %d, %d reps)   b: %s (seed %d, %d reps)\n", pathA, a.Seed, a.Repeat, pathB, b.Seed, b.Repeat)
	regressed := 0
	for _, w := range workloadOrder() {
		fmt.Fprintf(stdout, "\n%s\n", w)
		fmt.Fprintf(stdout, "  %-16s %14s %8s %14s %8s %9s %7s  %s\n", "metric", "a median", "a iqr", "b median", "b iqr", "b vs a", "bound", "verdict")
		for _, d := range e2eDecls {
			sa, okA := a.Summary[w][d.Name]
			sb, okB := b.Summary[w][d.Name]
			if !okA || !okB {
				continue
			}
			v := verdict(d, sa, sb)
			if v == "regressed" {
				regressed++
			}
			if sa.Median == sb.Median && sa.Spread == 0 && sb.Spread == 0 {
				v += " (exact)"
			}
			fmt.Fprintf(stdout, "  %-16s %14.4f %7.2f%% %14.4f %7.2f%% %+8.2f%% %6.0f%%  %s\n",
				d.Name, sa.Median, 100*sa.Spread, sb.Median, 100*sb.Spread,
				100*ratio(sb.Median-sa.Median, sa.Median), 100*d.Bound, v)
		}
	}
	if regressed > 0 {
		fmt.Fprintf(stdout, "\n%d pairs regressed\n", regressed)
		return 1
	}
	return 0
}
