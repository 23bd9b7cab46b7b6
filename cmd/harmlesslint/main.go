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
// Exit status: 0 when clean, 1 on findings, 2 when packages failed to
// load or typecheck.
//
// The two passes encode invariants the compiler cannot see and tests
// do not reliably reach — frame buffer ownership (frameown) and no
// dropped errors on teardown paths (errdrop); see internal/analysis
// and DESIGN.md. A finding is fixed or suppressed with an explained
// //harmless: directive — there is no list of accepted findings — and
// unexplained, unused and unknown directives are findings themselves,
// so a clean run means every suppression in the tree carries a reason.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/harmless-sdn/harmless/internal/analysis"
	"github.com/harmless-sdn/harmless/internal/analysis/errdrop"
	"github.com/harmless-sdn/harmless/internal/analysis/frameown"
)

// report is the JSON document -json and -out emit.
type report struct {
	Tool     string    `json:"tool"`
	Findings []finding `json:"findings"`
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
	fs.Parse(os.Args[1:])

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	analyzers := []*analysis.Analyzer{
		frameown.Analyzer,
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

	rep := report{Tool: "harmlesslint", Findings: []finding{}}
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
	default:
		for _, d := range diags {
			fmt.Printf("%s:%d:%d: %s: %s\n", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
		}
	}

	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "harmlesslint: %d finding(s)\n", len(diags))
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

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "harmlesslint: %v\n", err)
	os.Exit(2)
}
