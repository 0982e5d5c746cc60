package udm

import "fmt"

// Bulk transfer: FUGU handled messages larger than the 16-word send
// descriptor with an associated user-level DMA mechanism (out of scope in
// the paper, cited as [21]). This file provides the equivalent service at
// the library level: InjectBulk fragments a payload into wire messages and
// the receiving endpoint reassembles them, invoking the user handler once
// with the complete payload. In-order per-pair delivery makes reassembly
// need no sequence numbers beyond a transfer id.

// hBulkFrag is the reserved handler id carrying bulk fragments. User code
// must not register handlers in the reserved range 0xf0-0xff.
const hBulkFrag = 0xf0

// bulkFragWords sizes InjectBulk's stack fragment: enough for the
// argument words of a 130-word descriptor, twice the 64 words the
// experiments configure.
const bulkFragWords = 128

// bulkXfer is one in-flight reassembly.
type bulkXfer struct {
	handler uint64
	data    []uint64
	got     int
}

// InjectBulk sends a payload of any length to dst; the handler runs once at
// the destination with the complete payload in msg.Args (msg.Bulk set).
// Small payloads that fit one message still go through the fragment path so
// cost accounting stays uniform.
func (e *Env) InjectBulk(dst int, handler uint64, data ...uint64) {
	ep := e.EP
	max := ep.MaxArgs() - 4 // transfer id, offset, total, handler
	if max < 1 {
		panic("udm: descriptor too small for bulk fragments")
	}
	id := uint64(ep.Node())<<32 | uint64(ep.nextXfer)
	ep.nextXfer++
	if len(data) == 0 {
		e.Inject(dst, hBulkFrag, id, 0, 0, handler)
		return
	}
	// Each fragment is built on this call's stack: Describe copies the
	// words, and the array is per call, so an upcall's InjectBulk cannot
	// clobber a fragment the main thread is parked on inside inject. A
	// descriptor larger than the array still works; its fragments spill to
	// the heap.
	var frag [bulkFragWords]uint64
	for off := 0; off < len(data); off += max {
		end := off + max
		if end > len(data) {
			end = len(data)
		}
		args := append(frag[:0], id, uint64(off), uint64(len(data)), handler)
		args = append(args, data[off:end]...)
		e.Inject(dst, hBulkFrag, args...)
	}
}

// registerBulk installs the fragment reassembly handler on the endpoint.
func (ep *EP) registerBulk() {
	ep.bulk = make(map[uint64]*bulkXfer)
	ep.On(hBulkFrag, func(e *Env, m *Msg) {
		id, off, total, handler := m.Args[0], int(m.Args[1]), int(m.Args[2]), m.Args[3]
		x := ep.bulk[id]
		if x == nil {
			x = &bulkXfer{handler: handler, data: make([]uint64, total)}
			ep.bulk[id] = x
		}
		words := m.Args[4:]
		copy(x.data[off:], words)
		x.got += len(words)
		if x.got < total {
			return
		}
		delete(ep.bulk, id)
		h, ok := ep.handlers[x.handler]
		if !ok {
			panic(fmt.Sprintf("udm: node %d: no handler registered for bulk id %d", ep.Node(), x.handler))
		}
		ep.Delivered++
		h(&Env{T: e.T, EP: ep, inHandler: true}, &Msg{
			Handler: x.handler,
			Args:    x.data,
			Fast:    m.Fast,
			Bulk:    true,
		})
	})
}
