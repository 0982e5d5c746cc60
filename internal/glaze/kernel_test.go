package glaze

import (
	"testing"

	"fugu/internal/cpu"
)

// With tracing off, a process's switch into buffered mode and back must not
// allocate: the trace calls on those paths box their arguments, so they
// must not run without a log.
func TestBufferedModeSwitchAllocsWithTraceOff(t *testing.T) {
	m := NewMachine(NewConfig(WithMesh(2, 1)))
	defer m.Close()
	job := m.NewJob("switch")
	p := job.Process(0)
	k := p.Kernel()
	allocs := -1.0
	p.StartMain(func(tk *cpu.Task) {
		allocs = testing.AllocsPerRun(100, func() {
			k.SyntheticHandlerFault(tk, p) // enters buffered mode
			if !p.buffered {
				t.Error("injected handler fault did not enter buffered mode")
			}
			k.exitBuffered(tk, p)
		})
	})
	job.Process(1).StartMain(func(*cpu.Task) {})
	m.NewGang(1<<40, 0, job).Start()
	m.RunUntilDone(0, job)
	if allocs != 0 {
		t.Errorf("buffered entry+exit with tracing off: %v allocs/op, want 0", allocs)
	}
}
