// reproduce regenerates every result of the paper's evaluation in one
// run, writes the artifacts (figure traces, tables) into an output
// directory, and prints a paper-vs-measured summary with a PASS/FAIL
// verdict per result.
//
// Usage:
//
//	reproduce [-out results]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"embeddedmpls/internal/infobase"
	"embeddedmpls/internal/label"
	"embeddedmpls/internal/lsm"
)

type check struct {
	name     string
	paper    string
	measured string
	pass     bool
}

var checks []check

func record(name, paper, measured string, pass bool) {
	checks = append(checks, check{name, paper, measured, pass})
}

func main() {
	out := flag.String("out", "results", "directory for regenerated artifacts")
	flag.Parse()
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}

	runTable6(*out)
	runWorstCase()
	runResources()
	runFigures(*out)

	fmt.Printf("\n%-42s %-22s %-22s %s\n", "result", "paper", "measured", "verdict")
	failed := 0
	for _, c := range checks {
		verdict := "PASS"
		if !c.pass {
			verdict = "FAIL"
			failed++
		}
		fmt.Printf("%-42s %-22s %-22s %s\n", c.name, c.paper, c.measured, verdict)
	}
	fmt.Printf("\n%d/%d results reproduced; artifacts in %s/\n", len(checks)-failed, len(checks), *out)
	if err := writeReport(*out); err != nil {
		log.Fatal(err)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// writeReport emits the summary as a Markdown artifact next to the
// regenerated figures and tables.
func writeReport(out string) error {
	f, err := os.Create(filepath.Join(out, "REPORT.md"))
	if err != nil {
		return err
	}
	fmt.Fprintln(f, "# Reproduction report — Embedded MPLS Architecture (Peterkin & Ionescu, 2005)")
	fmt.Fprintln(f)
	fmt.Fprintln(f, "| result | paper | measured | verdict |")
	fmt.Fprintln(f, "|---|---|---|---|")
	for _, c := range checks {
		verdict := "PASS"
		if !c.pass {
			verdict = "**FAIL**"
		}
		fmt.Fprintf(f, "| %s | %s | %s | %s |\n", c.name, c.paper, c.measured, verdict)
	}
	fmt.Fprintln(f)
	fmt.Fprintln(f, "Artifacts: `table6.txt`, `fig14.txt`/`fig14.vcd`, `fig15.*`, `fig16.*` in this directory.")
	return f.Close()
}

func runTable6(out string) {
	b := lsm.NewBench(lsm.LSR)
	f, err := os.Create(filepath.Join(out, "table6.txt"))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	fmt.Fprintln(f, "Table 6 — processing times for different tasks (measured)")

	c, err := b.ResetOp()
	check1("Table 6: reset", 3, c, err, f)
	c, err = b.UserPush(label.Entry{Label: 1, TTL: 9})
	check1("Table 6: push from the user", 3, c, err, f)
	_, c, err = b.UserPop()
	check1("Table 6: pop from the user", 3, c, err, f)
	c, err = b.WritePair(infobase.Level2, infobase.Pair{Index: 1, NewLabel: 2, Op: label.OpSwap})
	check1("Table 6: write label pair", 3, c, err, f)

	// Search 3n+5 at three sizes.
	for _, n := range []int{1, 10, 100} {
		bb := lsm.NewBench(lsm.LSR)
		for i := 0; i < n; i++ {
			if _, err := bb.WritePair(infobase.Level2, infobase.Pair{Index: infobase.Key(i + 1), NewLabel: 5, Op: label.OpSwap}); err != nil {
				log.Fatal(err)
			}
		}
		_, c, err := bb.Lookup(infobase.Level2, 999999)
		check1(fmt.Sprintf("Table 6: search (n=%d)", n), 3*n+5, c, err, f)
	}

	// Swap tail.
	bb := lsm.NewBench(lsm.LSR)
	_, _ = bb.WritePair(infobase.Level2, infobase.Pair{Index: 42, NewLabel: 9, Op: label.OpSwap})
	_, _ = bb.UserPush(label.Entry{Label: 42, TTL: 64})
	res, c, err := bb.Update(lsm.UpdateRequest{})
	if err != nil {
		log.Fatal(err)
	}
	tail := c - lsm.SearchCycles(res.SearchPos)
	fmt.Fprintf(f, "swap from the information base: %d cycles (paper 6)\n", tail)
	record("Table 6: swap from the info base", "6 cycles", fmt.Sprintf("%d cycles", tail), tail == 6)
}

func check1(name string, want, got int, err error, f *os.File) {
	if err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	fmt.Fprintf(f, "%s: %d cycles (paper %d)\n", name, got, want)
	record(name, fmt.Sprintf("%d cycles", want), fmt.Sprintf("%d cycles", got), got == want)
}

func runWorstCase() {
	b := lsm.NewBench(lsm.LSR)
	total := 0
	c, err := b.ResetOp()
	must(err)
	total += c
	for i := 0; i < 3; i++ {
		c, err = b.UserPush(label.Entry{Label: label.Label(40 + i), TTL: 64})
		must(err)
		total += c
	}
	for i := 0; i < infobase.EntriesPerLevel; i++ {
		idx := infobase.Key(10000 + i)
		if i == infobase.EntriesPerLevel-1 {
			idx = 42
		}
		c, err = b.WritePair(infobase.Level3, infobase.Pair{Index: idx, NewLabel: 900, Op: label.OpSwap})
		must(err)
		total += c
	}
	_, c, err = b.Update(lsm.UpdateRequest{})
	must(err)
	total += c
	record("§4 worst case (composite)", "6167 cycles", fmt.Sprintf("%d cycles", total), total == 6167)
	ms := lsm.DefaultClock.Seconds(total) * 1e3
	record("§4 worst case at 50 MHz", "~0.1233 ms", fmt.Sprintf("%.4f ms", ms), ms > 0.123 && ms < 0.124)
}

// runResources checks §5's space claim: the information base's block
// RAM fits the paper's target device.
func runResources() {
	r := lsm.EstimateResources()
	fits, frac := r.FitsStratixEP1S40()
	record("§5 space on the target device", "fits EP1S40", fmt.Sprintf("%d IB bits, %.1f %%", r.RAMBits, frac*100), fits)
}

func runFigures(out string) {
	figs := []struct {
		name string
		run  func() (*lsm.FigureTrace, error)
		ok   func(*lsm.FigureTrace) (string, string, bool)
	}{
		{"fig14", lsm.Figure14, func(t *lsm.FigureTrace) (string, string, bool) {
			return "label 504, op 3, no discard",
				fmt.Sprintf("label %d, op %d, found=%v", t.Result.Label, t.Result.Op, t.Result.Found),
				t.Result.Found && t.Result.Label == 504 && t.Result.Op == label.OpSwap
		}},
		{"fig15", lsm.Figure15, func(t *lsm.FigureTrace) (string, string, bool) {
			return "label 504 read back",
				fmt.Sprintf("label %d, found=%v", t.Result.Label, t.Result.Found),
				t.Result.Found && t.Result.Label == 504
		}},
		{"fig16", lsm.Figure16, func(t *lsm.FigureTrace) (string, string, bool) {
			return "miss, packet discarded",
				fmt.Sprintf("found=%v, discard=%v", t.Result.Found, t.Bench.HW.PacketDiscard.Bool()),
				!t.Result.Found && t.Bench.HW.PacketDiscard.Bool()
		}},
	}
	for _, fig := range figs {
		tr, err := fig.run()
		must(err)
		for ext, write := range map[string]func(*os.File) error{
			".txt": func(f *os.File) error { return tr.Tracer.WriteTable(f) },
			".vcd": func(f *os.File) error { return tr.Tracer.WriteVCD(f, fig.name, time.Time{}) },
		} {
			f, err := os.Create(filepath.Join(out, fig.name+ext))
			must(err)
			must(write(f))
			must(f.Close())
		}
		paper, measured, ok := fig.ok(tr)
		record("Figure "+fig.name[3:], paper, measured, ok)
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
