// Command harmlesslint runs the repo's custom static analyzers over
// the given package patterns (default ./...).
//
// Output formats:
//
//	(default)   file:line:col: analyzer: message
//	-json       a JSON report {tool, findings: [...]} on stdout
//	-github     GitHub Actions workflow commands (::error ...) that
//	            render as inline annotations on the PR diff
//	-out FILE   additionally write the JSON report to FILE, whatever
//	            the stdout format — CI uploads it as an artifact
//
// Baseline workflow:
//
//	-baseline FILE        suppress the findings recorded in FILE; a
//	                      recorded finding that no longer fires is
//	                      *stale* and fails the run, so the baseline
//	                      can only shrink honestly
//	-write-baseline FILE  write the current findings to FILE and exit
//	                      (the `make lint-baseline` target)
//
// Exit status: 0 when clean, 1 on new or stale findings, 2 when
// packages failed to load or typecheck.
//
// The passes encode invariants the compiler cannot see — clock
// injection, zero-alloc hot paths, frame buffer ownership,
// map-iteration-order-free output, module-wide atomic discipline, and
// no dropped errors on teardown paths; see
// internal/analysis and DESIGN.md. Findings are suppressed only with
// an explained //harmless: directive, and the analyzers themselves
// flag unexplained or unused directives, so a clean run means every
// suppression in the tree carries a reason.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/harmless-sdn/harmless/internal/analysis"
	"github.com/harmless-sdn/harmless/internal/analysis/atomicmix"
	"github.com/harmless-sdn/harmless/internal/analysis/clockinject"
	"github.com/harmless-sdn/harmless/internal/analysis/detorder"
	"github.com/harmless-sdn/harmless/internal/analysis/errdrop"
	"github.com/harmless-sdn/harmless/internal/analysis/frameown"
	"github.com/harmless-sdn/harmless/internal/analysis/hotpathalloc"
)

// report is the JSON document -json and -out emit.
type report struct {
	Tool     string                   `json:"tool"`
	Findings []finding                `json:"findings"`
	Stale    []analysis.BaselineEntry `json:"stale_baseline_entries,omitempty"`
}

// finding is one diagnostic in the JSON report.
type finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

func main() {
	fs := flag.NewFlagSet("harmlesslint", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "print the JSON report on stdout")
	github := fs.Bool("github", false, "print GitHub Actions ::error annotations")
	outFile := fs.String("out", "", "also write the JSON report to this file")
	baselineFile := fs.String("baseline", "", "suppress findings recorded in this baseline; fail on stale entries")
	writeBaseline := fs.String("write-baseline", "", "write current findings as a baseline to this file and exit")
	fs.Parse(os.Args[1:])

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	analyzers := []*analysis.Analyzer{
		clockinject.Analyzer,
		hotpathalloc.Analyzer,
		frameown.Analyzer,
		detorder.Analyzer,
		atomicmix.Analyzer,
		errdrop.Analyzer,
	}

	dir, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	diags, err := analysis.Analyze(dir, patterns, analyzers)
	if err != nil {
		fatal(err)
	}

	if *writeBaseline != "" {
		b := analysis.NewBaseline(diags)
		if err := b.Save(*writeBaseline); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "harmlesslint: wrote %d entr%s to %s\n",
			len(b.Entries), plural(len(b.Entries), "y", "ies"), *writeBaseline)
		return
	}

	var stale []analysis.BaselineEntry
	if *baselineFile != "" {
		b, err := analysis.LoadBaseline(*baselineFile)
		if err != nil {
			fatal(err)
		}
		diags, stale = b.Apply(diags)
	}

	rep := report{Tool: "harmlesslint", Findings: []finding{}, Stale: stale}
	for _, d := range diags {
		rep.Findings = append(rep.Findings, finding{
			Analyzer: d.Analyzer,
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Message:  d.Message,
		})
	}
	if *outFile != "" {
		if err := writeJSON(*outFile, rep); err != nil {
			fatal(err)
		}
	}

	switch {
	case *jsonOut:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
	case *github:
		for _, d := range diags {
			fmt.Printf("::error file=%s,line=%d,col=%d,title=harmlesslint/%s::%s\n",
				d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, escapeWorkflow(d.Message))
		}
		for _, e := range stale {
			fmt.Printf("::error file=%s,line=%d,title=harmlesslint/baseline::stale baseline entry (%s: %s) no longer fires; delete it from the baseline\n",
				e.File, e.Line, e.Analyzer, escapeWorkflow(e.Message))
		}
	default:
		for _, d := range diags {
			fmt.Printf("%s:%d:%d: %s: %s\n", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
		}
		for _, e := range stale {
			fmt.Printf("%s:%d: %s: stale baseline entry (%s) no longer fires; delete it\n",
				e.File, e.Line, e.Analyzer, e.Message)
		}
	}

	if n := len(diags) + len(stale); n > 0 {
		fmt.Fprintf(os.Stderr, "harmlesslint: %d finding(s)", len(diags))
		if len(stale) > 0 {
			fmt.Fprintf(os.Stderr, ", %d stale baseline entr%s", len(stale), plural(len(stale), "y", "ies"))
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(1)
	}
}

func writeJSON(path string, rep report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(io.Writer(f))
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// escapeWorkflow escapes the characters GitHub's workflow-command
// parser treats specially in the message position.
func escapeWorkflow(s string) string {
	r := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A")
	return r.Replace(s)
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "harmlesslint: %v\n", err)
	os.Exit(2)
}
