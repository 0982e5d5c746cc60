package glaze

import (
	"testing"

	"fugu/internal/cpu"
	"fugu/internal/trace"
)

// With tracing off, a process's switch into buffered mode and back must not
// allocate: the trace calls on those paths box their arguments, so they
// must not run unless their category is enabled. "Off" covers both no log
// at all and a log whose mode category is disabled.
func TestBufferedModeSwitchAllocsWithTraceOff(t *testing.T) {
	sched := trace.New(16)
	sched.Enable(trace.Sched)
	for _, tc := range []struct {
		name string
		log  *trace.Log
	}{
		{"no log", nil},
		{"mode disabled", sched},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := NewConfig(WithMesh(2, 1))
			cfg.Trace = tc.log
			m := NewMachine(cfg)
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
		})
	}
}
