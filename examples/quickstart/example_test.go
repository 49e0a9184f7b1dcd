package main

// Example runs the program, so the test suite holds what it prints.
func Example() {
	main()
	// Output:
	// Detected reorderable sequences:
	//   seq 0 in main on r1: [-1]->B3 [32]->B4 [10]->B7 default B9
	//     decision: applied
	//
	//                                    baseline      reordered
	// instructions executed                147014          99919   (-32.03%)
	// conditional branches                  39001          16804   (-56.91%)
	// unconditional jumps                   13800          13800   (+0.00%)
	//
	// Both executables print: 300 2400 11100
}
