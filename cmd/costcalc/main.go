// Command costcalc regenerates the cost-effectiveness analysis (E4):
// the per-SDN-port CAPEX of the three migration strategies over a
// range of port counts. A migration campaign's per-wave spend table is
// printed by migrate -plan.
//
// Usage:
//
//	costcalc [-ports 8,24,48,96,192,384] [-greenfield]
//	         [-cots-price N] [-server-price N] [-legacy-price N]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/harmless-sdn/harmless/internal/cost"
)

func main() {
	portsFlag := flag.String("ports", "8,24,48,96,192,384", "comma-separated access port counts")
	greenfield := flag.Bool("greenfield", false, "price legacy switches in (from-scratch build)")
	cotsPrice := flag.Float64("cots-price", 0, "override COTS SDN switch price")
	serverPrice := flag.Float64("server-price", 0, "override server price")
	legacyPrice := flag.Float64("legacy-price", 0, "override legacy switch price")
	flag.Parse()

	catalog := cost.DefaultCatalog2017()
	if *cotsPrice > 0 {
		catalog.COTSSDNSwitchPrice = *cotsPrice
	}
	if *serverPrice > 0 {
		catalog.ServerPrice = *serverPrice
	}
	if *legacyPrice > 0 {
		catalog.LegacySwitchPrice = *legacyPrice
	}

	var ports []int
	for _, s := range strings.Split(*portsFlag, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || p <= 0 {
			fmt.Fprintf(os.Stderr, "costcalc: bad port count %q\n", s)
			os.Exit(2)
		}
		ports = append(ports, p)
	}

	rows, err := catalog.Sweep(ports, *greenfield)
	if err != nil {
		fmt.Fprintf(os.Stderr, "costcalc: %v\n", err)
		os.Exit(1)
	}
	mode := "migration (installed legacy gear is sunk cost)"
	if *greenfield {
		mode = "greenfield (legacy gear purchased)"
	}
	fmt.Printf("HARMLESS cost model — %s\n", mode)
	fmt.Printf("catalog: COTS $%.0f/%dp, server $%.0f/%dp, legacy $%.0f/%dp\n\n",
		catalog.COTSSDNSwitchPrice, catalog.COTSSDNSwitchPorts,
		catalog.ServerPrice, catalog.ServerPorts,
		catalog.LegacySwitchPrice, catalog.LegacySwitchPorts)
	fmt.Print(cost.FormatTable(rows))
	fmt.Printf("\nbreak-even server price at 48 ports: $%.0f (catalog: $%.0f)\n",
		catalog.BreakEvenServerPrice(48), catalog.ServerPrice)
}
