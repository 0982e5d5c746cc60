package sim

// Cond is a FIFO wait queue for procs, the simulation analogue of a
// condition variable. Waiters park; Signal and Broadcast schedule wakes at
// the current time in arrival order, keeping runs deterministic.
type Cond struct {
	eng     *Engine
	waiters []*Proc
}

// NewCond returns a condition queue bound to the engine.
func NewCond(e *Engine) *Cond { return &Cond{eng: e} }

// Wait parks the calling proc until a Signal or Broadcast releases it.
// As with sync.Cond, callers re-check their predicate in a loop.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.Park()
}

// Signal wakes the longest-waiting proc, if any, and reports whether one was
// woken.
func (c *Cond) Signal() bool {
	if len(c.waiters) == 0 {
		return false
	}
	p := c.waiters[0]
	copy(c.waiters, c.waiters[1:])
	c.waiters = c.waiters[:len(c.waiters)-1]
	c.eng.Wake(p)
	return true
}

// Broadcast wakes all waiting procs in FIFO order and returns how many were
// woken.
func (c *Cond) Broadcast() int {
	n := len(c.waiters)
	for _, p := range c.waiters {
		c.eng.Wake(p)
	}
	c.waiters = c.waiters[:0]
	return n
}

// Waiters reports how many procs are parked on the cond.
func (c *Cond) Waiters() int { return len(c.waiters) }
