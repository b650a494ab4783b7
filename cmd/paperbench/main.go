// Command paperbench regenerates every table and figure of the paper's
// evaluation on the simulated testbed and prints them in order.
//
// Usage:
//
//	paperbench [-seed N] [-only table1,fig1,...,fig14,ext-sched,ext-predictor,ext-ablation,ext-select,ext-search,ext-topology]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"optassign/internal/exp"
	"optassign/internal/proc"
)

func main() {
	seed := flag.Int64("seed", 1, "experiment seed")
	only := flag.String("only", "", "comma-separated experiment ids (default: all)")
	flag.Parse()

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}
	run := func(id string) bool { return len(want) == 0 || want[id] }

	env := exp.NewEnv(*seed)
	out := os.Stdout
	fail := func(id string, err error) {
		fmt.Fprintf(os.Stderr, "paperbench: %s: %v\n", id, err)
		os.Exit(1)
	}

	if run("table1") {
		rows, err := exp.Table1()
		if err != nil {
			fail("table1", err)
		}
		exp.PrintTable1(out, rows)
		fmt.Fprintln(out)
	}
	if run("fig1") {
		rows, err := exp.Figure1(env)
		if err != nil {
			fail("fig1", err)
		}
		exp.PrintFigure1(out, rows)
		fmt.Fprintln(out)
	}
	if run("fig2") {
		curves, err := exp.Figure2()
		if err != nil {
			fail("fig2", err)
		}
		exp.PrintFigure2(out, curves)
		fmt.Fprintln(out)
	}
	if run("fig3") {
		r, err := exp.Figure3(env)
		if err != nil {
			fail("fig3", err)
		}
		exp.PrintFigure3(out, r)
		fmt.Fprintln(out)
	}
	if run("fig45") {
		r, err := exp.Figure45(*seed)
		if err != nil {
			fail("fig45", err)
		}
		exp.PrintFigure45(out, r)
		fmt.Fprintln(out)
	}
	if run("fig6") {
		r, err := exp.Figure6(env)
		if err != nil {
			fail("fig6", err)
		}
		exp.PrintFigure6(out, r)
		fmt.Fprintln(out)
	}
	if run("fig7") {
		r, err := exp.Figure7(env)
		if err != nil {
			fail("fig7", err)
		}
		exp.PrintFigure7(out, r)
		fmt.Fprintln(out)
	}
	if run("fig10") || run("fig11") || run("fig12") {
		cells, err := exp.EstimationStudy(env)
		if err != nil {
			fail("fig10-12", err)
		}
		if run("fig10") {
			exp.PrintFigure10(out, cells)
			fmt.Fprintln(out)
		}
		if run("fig11") {
			exp.PrintFigure11(out, cells)
			fmt.Fprintln(out)
		}
		if run("fig12") {
			exp.PrintFigure12(out, cells)
			fmt.Fprintln(out)
		}
	}
	if run("fig14") {
		cells, err := exp.Figure14(env)
		if err != nil {
			fail("fig14", err)
		}
		exp.PrintFigure14(out, cells)
		fmt.Fprintln(out)
	}
	if run("ext-sched") {
		cells, err := exp.SchedulerStudy(env)
		if err != nil {
			fail("ext-sched", err)
		}
		exp.PrintSchedulerStudy(out, cells)
		fmt.Fprintln(out)
	}
	if run("ext-predictor") {
		cells, err := exp.PredictorStudy(env)
		if err != nil {
			fail("ext-predictor", err)
		}
		exp.PrintPredictorStudy(out, cells)
		fmt.Fprintln(out)
	}
	if run("ext-ablation") {
		cells, err := exp.AblationStudy(env)
		if err != nil {
			fail("ext-ablation", err)
		}
		exp.PrintAblationStudy(out, cells)
		fmt.Fprintln(out)
	}
	if run("ext-select") {
		r, err := exp.SelectStudy(env)
		if err != nil {
			fail("ext-select", err)
		}
		exp.PrintSelectStudy(out, r)
		fmt.Fprintln(out)
	}
	if run("ext-search") {
		cells, err := exp.SearchStrategyStudy(env)
		if err != nil {
			fail("ext-search", err)
		}
		exp.PrintSearchStrategyStudy(out, cells)
		fmt.Fprintln(out)
	}
	if run("ext-topology") {
		exp.PrintTopology(out, proc.UltraSPARCT2Machine())
		fmt.Fprintln(out)
		if err := exp.PrintBenchmarks(out, env); err != nil {
			fail("ext-topology", err)
		}
	}
}
