package main

// Example pins the program's stdout: the run is virtual-time and seeded,
// so every line is exact.
func Example() {
	main()
	// Output:
	// field bus: 101 temperature events published
	// gateway:   141 events forwarded across segments, 0 dropped
	// supervision console: 101 temperatures received, 40 commands issued
	// field actuator: 40 commands received (via gateway)
	// origin filtering on supervision node 2:
	//   temp events excluding gateway origin: 0 (all 101 temps were remote ⇒ filtered out)
	//   local status events received:         21 of 21 sent
	// segment utilization: field 1.9%, supervision 2.2%
}
