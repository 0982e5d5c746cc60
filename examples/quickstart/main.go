// Quickstart: a two-node ping-pong over UDM messages, showing injection,
// handler dispatch (the user-level interrupt), and the fast-path latency of
// Table 4.
package main

import (
	"fmt"

	"fugu"
)

const (
	hPing = 1
	hPong = 2
)

func main() {
	m := fugu.NewMachine(fugu.DefaultConfig(), fugu.WithMesh(2, 1))
	defer m.Close()
	job := m.NewJob("pingpong")

	ep0 := fugu.Attach(job.Process(0))
	ep1 := fugu.Attach(job.Process(1))

	// Node 1 echoes every ping back with its arrival time.
	ep1.On(hPing, func(e *fugu.Env, msg *fugu.Msg) {
		e.Inject(0, hPong, msg.Args[0], e.Now())
	})

	const rounds = 10
	done := fugu.NewCounter()
	var rtts []uint64
	ep0.On(hPong, func(e *fugu.Env, msg *fugu.Msg) {
		rtts = append(rtts, e.Now()-msg.Args[0])
		done.Add(1)
	})

	job.Process(0).StartMain(func(t *fugu.Task) {
		e := ep0.Env(t)
		for i := uint64(1); i <= rounds; i++ {
			e.Inject(1, hPing, e.Now())
			done.WaitFor(t, i)
		}
	})

	m.NewGang(1<<40, 0, job).Start()
	m.RunUntilDone(0, job)

	fmt.Println("round-trip times (cycles):", rtts)
	var sum uint64
	for _, r := range rtts {
		sum += r
	}
	fmt.Printf("mean RTT: %d cycles (2x send %d + wire + 2x receive %d)\n",
		sum/rounds, m.Cost().SendCost(2), m.Cost().RecvIntrTotal())
	d := job.Delivery()
	fmt.Printf("deliveries: %d fast, %d buffered — the direct path is the common path\n",
		d.Fast, d.Buffered)
}
