// Quickstart: extract (simplified) e-mail addresses with the regex formula
// of the paper's Example 2.5 — a pattern with nested capture variables —
// and stream the matches with polynomial delay.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"spanjoin"
)

func main() {
	// xmail captures the whole address, xuser and xdomain its parts
	// (Example 2.5's β, in spanjoin's ASCII syntax).
	pattern := `.* mail{user{[a-z]+}@domain{[a-z]+(\.[a-z]+)+}}([ .].*|\.)`
	sp, err := spanjoin.Compile(pattern)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("pattern:  ", pattern)
	fmt.Println("variables:", sp.Vars())
	fmt.Println()

	doc := "dear team, please cc alice@example.org and bob@dev.example.net " +
		"on the report. archived under records@corp.org."

	// Real callers thread a request context here: the stream stops once
	// it is done, and Err reports why.
	it, err := sp.Iterate(context.Background(), doc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("matches (deterministic radix order, polynomial delay):")
	for {
		m, ok := it.Next()
		if !ok {
			break
		}
		mail, _ := m.Span("mail")
		fmt.Printf("  %-28s user=%-8s domain=%-16s at %v\n",
			m.MustSubstr("mail"), m.MustSubstr("user"), m.MustSubstr("domain"), mail)
	}
	// spanlint/closecheck: Err separates cancellation from exhaustion.
	if err := it.Err(); err != nil {
		log.Fatal(err)
	}
}
