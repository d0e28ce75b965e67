// Closing the loop: the paper's core methodology as a program.
//
// An untuned simulator mispredicts the hardware's microbenchmark
// latencies (wrong TLB-refill cost, unmodeled secondary-cache interface
// occupancy, design-estimate FlashLite timing). The Calibrator measures
// snbench on the hardware reference, fits the simulator's parameters,
// and the tuned simulator then matches all five dependent-load protocol
// cases of Table 3.
package main

import (
	"fmt"
	"log"

	"flashsim/internal/core"
	"flashsim/internal/harness"
)

func main() {
	ref := core.NewReference(4, true)
	cal := core.NewCalibrator(ref)

	untuned := core.SimOSMXS(4, true)
	fmt.Printf("calibrating %s against the hardware reference...\n\n", untuned.Name)
	c, err := cal.Calibrate(untuned)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("parameter adjustments (the closed loop):")
	for _, a := range c.Report {
		fmt.Printf("  %v\n", a)
	}

	dl, err := harness.MeasureDepLoads(cal, untuned, c.Apply(untuned))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ndependent-load latencies (Table 3):")
	fmt.Printf("  %-22s %8s %16s %16s\n", "protocol case", "hw/ns", "untuned", "tuned")
	fmt.Print(dl.Rows(8, ""))
	fmt.Println("\nwithout a hardware reference, none of these errors would be visible.")
}
