// Command chronolint runs the repository's determinism and correctness
// linters (internal/analysis) over package patterns, multichecker-style.
//
// Usage:
//
//	go run ./cmd/chronolint ./...
//	go run ./cmd/chronolint -list
//	go run ./cmd/chronolint -all ./internal/engine
//	go run ./cmd/chronolint -format sarif ./... > chronolint.sarif
//	go run ./cmd/chronolint -baseline lint-baseline.json ./...
//	go run ./cmd/chronolint -suggest ./...
//
// Each analyzer is scoped to the packages where its rule is load-bearing
// (see internal/analysis.Applies); -all disables the scoping and runs
// every analyzer on every named package. Severities default per analyzer
// and are overridden with -severity name=warn[,name=error...]; only
// error-severity findings gate. The exit status is 1 when any
// error-severity finding survives suppression and baselining, else 0.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"chrono/internal/analysis"
	"chrono/internal/analysis/registry"
)

func main() {
	var (
		list          = flag.Bool("list", false, "list analyzers and exit")
		all           = flag.Bool("all", false, "ignore package scoping; run every analyzer everywhere")
		format        = flag.String("format", "text", "output format: text, json, or sarif")
		baselinePath  = flag.String("baseline", "", "baseline file of acknowledged findings to suppress")
		baselineMatch = flag.String("baseline-match", "path", "fingerprint mode: path (rule+file+message) or content (rule+message; survives file renames)")
		writeBaseline = flag.String("write-baseline", "", "write surviving findings to this baseline file and exit 0")
		suggest       = flag.Bool("suggest", false, "print the directive line to insert for each finding: the structural fence the analyzer suggests (//chrono:statesync, //chrono:hotpath) when it knows one, else a //chrono:allow template")
		severityFlag  = flag.String("severity", "", "per-analyzer severity overrides, e.g. goroscope=warn,lockorder=error")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: chronolint [flags] [packages]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := registry.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %-7s %s\n", a.Name, a.Severity, a.Doc)
		}
		return
	}

	opts := analysis.Options{All: *all}
	switch *baselineMatch {
	case analysis.BaselineMatchPath, analysis.BaselineMatchContent:
		opts.BaselineMatch = *baselineMatch
	default:
		fatal(fmt.Errorf("unknown -baseline-match %q (want path or content)", *baselineMatch))
	}
	var err error
	if opts.Severities, err = parseSeverities(*severityFlag, analyzers); err != nil {
		fatal(err)
	}
	if *baselinePath != "" {
		if opts.Baseline, err = analysis.LoadBaseline(*baselinePath); err != nil {
			fatal(err)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := analysis.NewLoader(".")
	if err != nil {
		fatal(err)
	}
	res, err := analysis.Drive(loader, analyzers, patterns, opts)
	if err != nil {
		fatal(err)
	}

	if *writeBaseline != "" {
		if err := analysis.WriteBaseline(*writeBaseline, res.Findings); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "chronolint: wrote %d finding(s) to %s\n", len(res.Findings), *writeBaseline)
		return
	}

	switch *format {
	case "text":
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
	case "json":
		out, err := analysis.JSONReport(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(out))
	case "sarif":
		out, err := analysis.SARIFReport(analyzers, res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(out))
	default:
		fatal(fmt.Errorf("unknown -format %q (want text, json, or sarif)", *format))
	}

	if n := res.Errors(); n > 0 {
		fmt.Fprintf(os.Stderr, "chronolint: %d error(s), %d warning(s), %d suppressed, %d baselined\n",
			n, res.Warnings(), res.Suppressed, res.Baselined)
		os.Exit(1)
	}
	if res.Warnings() > 0 {
		fmt.Fprintf(os.Stderr, "chronolint: %d warning(s), %d suppressed, %d baselined\n",
			res.Warnings(), res.Suppressed, res.Baselined)
	}
}

// parseSeverities parses -severity name=level[,name=level...], validating
// analyzer names so a typo cannot silently leave the default in force.
func parseSeverities(s string, analyzers []*analysis.Analyzer) (map[string]analysis.Severity, error) {
	if s == "" {
		return nil, nil
	}
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	known[analysis.DirectiveRule] = true
	out := make(map[string]analysis.Severity)
	for _, part := range strings.Split(s, ",") {
		name, level, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad -severity entry %q (want name=error or name=warn)", part)
		}
		if !known[name] {
			return nil, fmt.Errorf("-severity names unknown analyzer %q", name)
		}
		switch level {
		case "error":
			out[name] = analysis.SevError
		case "warn", "warning":
			out[name] = analysis.SevWarn
		default:
			return nil, fmt.Errorf("bad severity %q for %s (want error or warn)", level, name)
		}
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "chronolint:", err)
	os.Exit(1)
}
