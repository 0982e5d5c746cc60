// Multiprog demonstrates two-case delivery under multiprogramming: the
// barrier benchmark gang-scheduled against a null application with skewed
// node clocks. Messages that arrive while the application is descheduled
// take the software-buffered path transparently; the program reports the
// split and the physical pages virtual buffering consumed.
package main

import (
	"fmt"

	"fugu"
)

func main() {
	for _, skew := range []float64{0, 0.02, 0.08} {
		m := fugu.NewMachine(fugu.DefaultConfig())
		app := m.NewJob("barrier")
		null := m.NewJob("null")

		inst := fugu.NewBarrierApp(2000)
		inst.Start(m, app)

		// 100k-cycle quantum; node i's clock lags node 0's by
		// skew*quantum*i/7, opening mis-scheduling windows at quantum
		// boundaries exactly as in the paper's experiments.
		m.NewGang(100_000, skew, app, null).Start()
		m.RunUntilDone(0, app)
		m.Close()

		if err := inst.Check(); err != nil {
			fmt.Println("CHECK FAILED:", err)
			return
		}
		d := app.Delivery()
		fmt.Printf("skew %4.1f%%: runtime %5.2fMcycles, %6d fast, %4d buffered (%.2f%%), max %d buffer pages/node\n",
			skew*100, float64(app.DoneAt())/1e6, d.Fast, d.Buffered, d.BufferedPct(), app.MaxBufferPages())
	}
	fmt.Println("\nthe fast case is the common case; buffering absorbs the scheduling windows")
}
