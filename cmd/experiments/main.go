// Command experiments regenerates the tables and figures of the paper's
// experimental evaluation (§5). Each experiment prints the rows or
// series the paper reports, scaled to the host; EXPERIMENTS.md records
// paper-vs-measured for every one.
//
// Usage:
//
//	experiments -exp fig9 [-size 64MB] [-vcores 3584] [-quick]
//	experiments -exp all
//
// Experiments: table1 table2 fig8 fig9 fig10 fig11 fig12 fig13 scaling
// ablation, or all.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/debug"

	parparaw "repro"
	"repro/internal/experiments"
)

func main() {
	// Per-block costs are measured with wall clocks; GC pauses landing
	// inside a block inflate that block and, through the makespan, the
	// whole modelled launch. Trading memory for fewer collections keeps
	// the measurement noise floor low.
	debug.SetGCPercent(400)
	exp := flag.String("exp", "all", "experiment to run (or 'all')")
	size := flag.String("size", "16MB", "base input size (e.g. 1MB, 64MB, 1GB)")
	seed := flag.Int64("seed", 42, "dataset generation seed")
	vcores := flag.Int("vcores", 3584, "modelled device width (the paper's Titan X has 3584)")
	workers := flag.Int("workers", 0, "real host workers (0 = all CPUs)")
	quick := flag.Bool("quick", false, "trim sweeps to a handful of points")
	reps := flag.Int("reps", 1, "repetitions per configuration (minimum reported)")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-10s %s\n", e.Name, e.Title)
		}
		return
	}

	bytes, err := parparaw.ParseSizeSpec(*size)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	cfg := experiments.Config{
		Size:           bytes,
		Seed:           *seed,
		VirtualWorkers: *vcores,
		Workers:        *workers,
		Quick:          *quick,
		Reps:           *reps,
	}
	if err := experiments.Run(*exp, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
