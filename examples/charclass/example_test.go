package main

// Example runs the program, so the test suite holds what it prints.
func Example() {
	main()
	// Output:
	// executable         insts on prose  insts on tables
	// baseline                   791079           612163
	// prose-trained              366934           497350
	// table-trained              621044           406156
	//
	// Each trained build wins on its own distribution; training on the
	// wrong distribution gives up part of the benefit — the paper's
	// train/test sensitivity (Section 9, the hyphen row).
}
