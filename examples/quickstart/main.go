// Quickstart: design a gracefully degradable pipeline network, kill nodes,
// and watch the pipeline re-form over every remaining healthy processor.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"gdpn/internal/construct"
	"gdpn/internal/graph"
	"gdpn/internal/reconfig"
)

func main() {
	// A network guaranteeing a 7-processor pipeline through up to 2 faults
	// anywhere — including in the I/O terminals themselves.
	sol, err := construct.Design(7, 2)
	if err != nil {
		log.Fatal(err)
	}
	g := sol.Graph
	fmt.Println(g.Summary())

	// The manager holds the live pipeline and repairs it on each fault,
	// certificate-checking every pipeline it adopts.
	mgr, err := reconfig.New(sol)
	if err != nil {
		log.Fatal(err)
	}
	p := mgr.Pipeline()
	fmt.Printf("fault-free (%d processors): %s\n", len(p)-2, p.String(g))

	// Kill a processor in the middle of the pipeline...
	victim := p[len(p)/2]
	tactic, err := mgr.Fault(victim)
	if err != nil {
		log.Fatal(err)
	}
	p = mgr.Pipeline()
	fmt.Printf("after losing %s (%d processors, %s): %s\n",
		graph.NodeName(g, victim), len(p)-2, tactic, p.String(g))

	// ...and the pipeline's input terminal.
	ti := p[0]
	if tactic, err = mgr.Fault(ti); err != nil {
		log.Fatal(err)
	}
	p = mgr.Pipeline()
	fmt.Printf("after also losing %s (%d processors, %s): %s\n",
		graph.NodeName(g, ti), len(p)-2, tactic, p.String(g))

	healthy := 0
	for _, v := range g.Processors() {
		if !mgr.Faults().Contains(v) {
			healthy++
		}
	}
	fmt.Printf("graceful: pipeline always uses all %d healthy processors\n", healthy)
}
