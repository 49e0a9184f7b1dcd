package main

// Example runs the program, so the test suite holds what it prints.
func Example() {
	main()
	// Output:
	// Arms (range, target, probability, cost):
	//   0: [10..20]           -> T1  p=0.05 c=4  (explicit)
	//   1: [40]               -> T2  p=0.10 c=2  (explicit)
	//   2: [MIN..9]           -> T3  p=0.02 c=2  (default)
	//   3: [21..39]           -> T3  p=0.63 c=4  (default)
	//   4: [41..MAX]          -> T3  p=0.20 c=2  (default)
	//
	// Original order [T1, T2] with TD untested: expected cost 5.900 insts/entry
	// Everything explicit, sorted by p/c:        expected cost 5.400 insts/entry
	//
	// Figure 8 selection: cost 5.220
	//   test order: [3 4 1 2]
	//   left untested (become the fall-through to T1): [0]
	//
	// Exhaustive oracle: cost 5.220 (order [3 4 1 2], untested [0])
	// Figure 8's O(n log n) procedure found the optimum, as the paper reports.
	//
	// Theorem 3 check: p/c(T2)=0.050 vs p/c(hot gap)=0.158 ->
	//   [hot, T2] costs 3.120, [T2, hot] costs 3.980
}
