// Command migrate runs a hybrid-SDN migration campaign: it plans the
// fabric's transition to HARMLESS-S4 under a per-wave budget, executes
// the waves against a live emulated mixed fabric (vendor CLIs, S4
// pairs, controller channels, continuous traffic — all on virtual
// time), injects the spec's mid-wave faults, rolls failed waves back to
// their pre-wave legacy configuration, and prints a digest-checked
// verdict as JSON. The same spec always produces the same digest, on any
// machine.
//
// Usage:
//
//	migrate -spec examples/migrate/campaign.json
//	migrate -spec campaign.json -plan            (print the wave plan, run nothing)
//	migrate -spec campaign.json -out report.json
//
// Exit status: 0 on a passing campaign, 2 when the campaign fails its
// invariants (traffic loss, cost drift, botched rollback), 1 on
// operational errors (bad spec, wall budget exceeded).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/harmless-sdn/harmless/internal/migrate"
)

func main() {
	var (
		specPath   = flag.String("spec", "", "campaign spec JSON file (required)")
		planOnly   = flag.Bool("plan", false, "print the planned waves and spend table, run nothing")
		out        = flag.String("out", "", "also write the report JSON to this file")
		wallBudget = flag.Duration("wall-budget", 0, "abort if the run burns more real time than this (0 = unbounded)")
		verbose    = flag.Bool("v", false, "log campaign progress to stderr")
	)
	flag.Parse()
	if *specPath == "" {
		fmt.Fprintln(os.Stderr, "migrate: -spec is required")
		flag.Usage()
		os.Exit(1)
	}

	spec, err := migrate.LoadSpec(*specPath)
	if err != nil {
		fatal(err)
	}

	x, err := migrate.NewExecutor(spec)
	if err != nil {
		fatal(err)
	}
	plan := x.Plan()
	if *planOnly {
		if err := x.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("campaign %q: %d switches in %d waves, budget $%.0f/wave\n\n",
			spec.Name, len(spec.Switches), len(plan.Waves), plan.WaveBudget)
		fmt.Print(migrate.FormatCampaignTable(plan))
		return
	}

	if *verbose {
		fmt.Fprintf(os.Stderr, "migrate: campaign %q: %d switches in %d waves\n",
			spec.Name, len(spec.Switches), len(plan.Waves))
	}
	start := time.Now()
	rep, err := x.Run(*wallBudget)
	if err != nil {
		fatal(err)
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "migrate: %d committed, %d rolled back, %d datagrams, %d events in %v wall\n",
			rep.CommittedWaves, rep.RolledBackWaves, rep.Sent, rep.Events, time.Since(start).Round(time.Millisecond))
	}

	doc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	doc = append(doc, '\n')
	if _, err := os.Stdout.Write(doc); err != nil {
		fatal(err)
	}
	if *out != "" {
		if err := os.WriteFile(*out, doc, 0o644); err != nil {
			fatal(err)
		}
	}
	if !rep.Pass {
		fmt.Fprintf(os.Stderr, "migrate: CAMPAIGN FAILED: %v\n", rep.Failures)
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "migrate: %v\n", err)
	os.Exit(1)
}
