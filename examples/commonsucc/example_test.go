package main

// Example runs the program, so the test suite holds what it prints.
func Example() {
	main()
	// Output:
	// range conditions only       insts=   108011  branches=    36001
	// with common-succ extension  insts=    75917  branches=    19954
	//   detected: orseq 0 in main: (r2 eq 0) (r3 eq 1) (r2 lt 65) (r3 gt 119) -> B8 else B10
	//   decision: applied, order [3 1 2 0], expected branches/entry 4.000 -> 1.301
	//
	// The || chain tests different variables (a, b, a, b), so the range-
	// condition transformation cannot touch it; the extension reorders it
	// from the joint-outcome counters, putting the hot test first.
}
