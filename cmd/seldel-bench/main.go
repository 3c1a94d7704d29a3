// Command seldel-bench regenerates the paper's figures and the
// quantitative claims of the evaluation (experiments E1–E12, indexed in
// the package comment of internal/experiments). Every table is
// deterministic: two runs print the same bytes.
//
// Usage:
//
//	seldel-bench              # run everything
//	seldel-bench -list        # list experiment ids
//	seldel-bench -run fig7    # run one experiment
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/seldel/seldel/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "seldel-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("seldel-bench", flag.ContinueOnError)
	list := fs.Bool("list", false, "list experiment ids and exit")
	id := fs.String("run", "", "run a single experiment by id (default: all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-10s %-12s %s\n", e.ID, e.Paper, e.Title)
		}
		return nil
	}
	if *id != "" {
		return experiments.Run(os.Stdout, *id)
	}
	return experiments.RunAll(os.Stdout)
}
