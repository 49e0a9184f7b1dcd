package main

// Example runs the program, so the test suite holds what it prints.
func Example() {
	main()
	// Output:
	// lex workload under the three switch-translation heuristic sets
	//
	// set   switch translations                 insts    reordered     Δinsts
	// I     1 binary                           353412       332505     -5.92%
	// II    1 binary                           353412       332505     -5.92%
	// III   1 linear                           455224       316912    -30.38%
	//
	// Modelled cycles (baseline -> reordered) per machine, using the
	// heuristic set the paper pairs with each machine:
	//   SPARC IPC      (set I  )       454487 ->       418253   (-7.97%)
	//   SPARC 20       (set I  )       511185 ->       467801   (-8.49%)
	//   SPARC Ultra I  (set II )       451733 ->       423257   (-6.30%)
	//
	// Set III's linear searches start out slower than Set I's binary
	// search, but expose the whole switch to reordering — after the
	// transformation the linear version is the fastest of the three,
	// which is why the paper suggests profile data should pick the
	// switch translation method in the first place.
}
