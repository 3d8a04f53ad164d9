package main

// Example pins the program's stdout: the run is virtual-time and seeded,
// so every line is exact.
func Example() {
	main()
	// Output:
	// round  0: temp=25.00°C delivered at 0.300524s (period 0 µs, network arrival 0.300179s)
	// round  1: temp=25.07°C delivered at 0.310523s (period 9999 µs, network arrival 0.310119s)
	// round  2: temp=25.14°C delivered at 0.320523s (period 9999 µs, network arrival 0.320120s)
	// round  3: temp=25.21°C delivered at 0.330523s (period 9999 µs, network arrival 0.330122s)
	// round  4: temp=25.28°C delivered at 0.340522s (period 9999 µs, network arrival 0.340122s)
	// round 10: temp=25.70°C delivered at 0.400530s (period 10010 µs, network arrival 0.400179s)
	// round 20: temp=26.40°C delivered at 0.500541s (period 10013 µs, network arrival 0.500179s)
	// round 30: temp=27.10°C delivered at 0.600549s (period 10011 µs, network arrival 0.600178s)
	// round 40: temp=27.80°C delivered at 0.700556s (period 10010 µs, network arrival 0.700179s)
	//
	// published=50 delivered=100 (2 subscribers) slotMissed=0 late=0
	// bus utilization: 0.8%
}
