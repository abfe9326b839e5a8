// Command benchmark is the repository's benchmark: five workloads,
// end-to-end metrics with regression bounds, and a per-layer budget
// taken from outside the program. See README.md in this directory.
//
// One workload, the way the driver runs it (the last line of standard
// output is the result object):
//
//	go run ./benchmark -workload transit_wire -seed 1 -seconds 15 -trace 0
//
// Every workload, each in a fresh child process, repeated and compared:
//
//	go run ./benchmark -repeat 5 -out benchmark/out
//	go run ./benchmark -trace 1
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// metricValue is one reported figure: as measured, with all its digits.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of a single-workload
// run — exactly these four keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is the line before it: everything else a reader (or the suite
// parent) wants next to the figures.
type report struct {
	Workload   string      `json:"workload"`
	Seed       int64       `json:"seed"`
	Seconds    int         `json:"seconds"`
	Trace      bool        `json:"trace"`
	Machine    machineInfo `json:"machine"`
	LatSamples int         `json:"lat_samples"`
	Invalid    string      `json:"invalid,omitempty"` // why the fixed-rate figures should not be read
	Violations []string    `json:"violations,omitempty"`
	Notes      []string    `json:"notes,omitempty"`
	Claim      *string     `json:"claim"` // this benchmark claims no gain
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run in this process (default: all, each in a child process)")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", runSeconds, "how long one run measures")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics, tracing off")
	repeat := fs.Int("repeat", 1, "suite mode: repetitions, workloads alternating within each")
	varySeed := fs.Bool("vary-seed", false, "suite mode: repetition i uses seed+i (the driver's steadiness check) instead of one seed throughout")
	out := fs.String("out", benchPath+"/out", "directory for trace files and suite results")
	compare := fs.Bool("compare", false, "compare two suite result files: -compare a.json b.json")
	breakGate := fs.Bool("break", false, "expect a wrong output on purpose: the correctness gate must fail the run")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json as the runner declares it and exit")
	printTable := fs.Bool("layer-table", false, "print the per-layer interaction table of README.md and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *printManifest:
		stdout.Write(manifestJSON())
		return 0
	case *printTable:
		layerTable(stdout)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *workload == "":
		return runSuite(suiteConfig{seed: *seed, seconds: *seconds, trace: *trace != 0, repeat: *repeat, varySeed: *varySeed, outDir: *out, breakGate: *breakGate}, stdout, stderr)
	}
	if *seconds < 3 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be at least 3")
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0, breakGate: *breakGate, outDir: *out}
	o, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	return emit(*workload, cfg, o, stdout)
}

// emit prints every metric by name with its unit, the report line, and
// last the result object. The exit code is non-zero when the
// correctness gate found a violation.
func emit(workload string, cfg runConfig, o *outcome, stdout io.Writer) int {
	values, names := o.e2e, e2eNames()
	if cfg.trace {
		values, names = o.layer, layerNames()
		values["e2e.fail_ratio"] = ratio(float64(o.failed()), float64(o.attempted))
	}
	res := result{
		Correct:   len(o.violations) == 0 && o.failed() == 0,
		Attempted: o.attempted,
		Failed:    o.failed(),
		Metrics:   make(map[string]metricValue, len(names)),
	}
	fmt.Fprintf(stdout, "workload %s seed %d seconds %d trace %v\n", workload, cfg.seed, cfg.seconds, cfg.trace)
	for _, name := range names {
		// A layer that does no work on this workload reports 0: that is
		// the "no move predicted" column of the interaction table.
		mv := metricValue{Value: values[name], Unit: unitOf(name)}
		res.Metrics[name] = mv
		fmt.Fprintf(stdout, "  %-40s %18.6f %s\n", name, mv.Value, mv.Unit)
	}
	for _, n := range o.notes {
		fmt.Fprintf(stdout, "  note: %s\n", n)
	}
	if o.invalid != "" {
		fmt.Fprintf(stdout, "  INVALID: %s\n", o.invalid)
	}
	for _, v := range o.violations {
		fmt.Fprintf(stdout, "  VIOLATION: %s\n", v)
	}
	rep := report{
		Workload: workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Machine: machine(),
		LatSamples: o.latSamples, Invalid: o.invalid, Violations: o.violations, Notes: o.notes,
	}
	blob, _ := json.Marshal(rep) // plain data
	fmt.Fprintf(stdout, "report: %s\n", blob)
	blob, _ = json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n", blob)
	if !res.Correct {
		return 1
	}
	return 0
}
