// Command chronolint runs the repository's determinism and correctness
// linters (internal/analysis) over package patterns, multichecker-style.
//
// Usage:
//
//	go run ./cmd/chronolint ./...
//	go run ./cmd/chronolint -list
//	go run ./cmd/chronolint -all ./internal/engine
//	go run ./cmd/chronolint -format sarif ./... > chronolint.sarif
//	go run ./cmd/chronolint -suggest ./...
//
// Each analyzer is scoped to the packages where its rule is load-bearing
// (see internal/analysis.Applies); -all disables the scoping and runs
// every analyzer on every named package. Every finding gates: the exit
// status is 1 when any finding survives //chrono:allow suppression, else 0.
package main

import (
	"flag"
	"fmt"
	"os"

	"chrono/internal/analysis"
	"chrono/internal/analysis/registry"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list analyzers and exit")
		all     = flag.Bool("all", false, "ignore package scoping; run every analyzer everywhere")
		format  = flag.String("format", "text", "output format: text or sarif")
		suggest = flag.Bool("suggest", false, "print the directive line to insert for each finding: the structural fence the analyzer suggests (//chrono:statesync, //chrono:hotpath) when it knows one, else a //chrono:allow template")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: chronolint [flags] [packages]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := registry.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *format != "text" && *format != "sarif" {
		fatal(fmt.Errorf("unknown -format %q (want text or sarif)", *format))
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := analysis.NewLoader(".")
	if err != nil {
		fatal(err)
	}
	res, err := analysis.Drive(loader, analyzers, patterns, analysis.Options{All: *all})
	if err != nil {
		fatal(err)
	}

	if *format == "sarif" {
		out, err := analysis.SARIFReport(analyzers, res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(out))
	} else {
		for _, f := range res.Findings {
			fmt.Println(f)
			if *suggest {
				if f.Suggest != "" {
					fmt.Printf("\tto resolve, insert above %s:%d:\n\t%s\n", f.File, f.Line, f.Suggest)
				} else {
					fmt.Printf("\tto suppress, insert above %s:%d:\n\t//chrono:allow %s <why this is safe>\n",
						f.File, f.Line, f.Rule)
				}
			}
		}
	}

	if n := len(res.Findings); n > 0 {
		fmt.Fprintf(os.Stderr, "chronolint: %d finding(s), %d suppressed\n", n, res.Suppressed)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "chronolint:", err)
	os.Exit(1)
}
