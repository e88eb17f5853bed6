// Command policyc compiles and checks admission policy files
// (DESIGN.md §15). It is the offline half of the edge admission
// pipeline: the same policy document cmd/serve and cmd/router enforce
// in-process through the longest-prefix-match trie is compiled here
// and summarized, so it can be validated before a deploy.
//
// Usage:
//
//	policyc -policy policy.json
//
// Exit status is non-zero on any validation error, so CI can gate
// policy changes with `policyc -policy FILE`.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"repro/internal/admission"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("policyc: ")

	policyPath := flag.String("policy", "", "admission policy file to compile (required)")
	flag.Parse()
	if *policyPath == "" {
		log.Fatal("usage: policyc -policy FILE")
	}

	pol, err := admission.LoadPolicyFile(*policyPath)
	if err != nil {
		log.Fatal(err)
	}
	tab, err := pol.Compile()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("policy %s: OK\n", *policyPath)
	fmt.Printf("  rules:          %d prefixes (default %s)\n", tab.Rules(), defaultAction(pol))
	fmt.Printf("  classes:        %s (default %s)\n", classList(tab), defaultClass(pol, tab))
	if pol.Rate > 0 {
		fmt.Printf("  rate limit:     %g req/s, burst %g per client\n", pol.Rate, effectiveBurst(pol))
	} else {
		fmt.Printf("  rate limit:     off\n")
	}
	if pol.MaxConcurrent > 0 {
		fmt.Printf("  shed budget:    %d concurrent\n", pol.MaxConcurrent)
	} else {
		fmt.Printf("  shed budget:    off\n")
	}
}

func defaultAction(p *admission.Policy) string {
	if p.DefaultAction == "" {
		return "allow"
	}
	return p.DefaultAction
}

func classList(tab *admission.Table) string {
	return strings.Join(tab.Classes(), " > ")
}

func defaultClass(p *admission.Policy, tab *admission.Table) string {
	if p.DefaultClass != "" {
		return p.DefaultClass
	}
	names := tab.Classes()
	return names[len(names)-1]
}

func effectiveBurst(p *admission.Policy) float64 {
	if p.Burst > 0 {
		return p.Burst
	}
	if p.Rate > 1 {
		return p.Rate
	}
	return 1
}
