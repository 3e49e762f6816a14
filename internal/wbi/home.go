package wbi

import (
	"fmt"
	"sort"

	"ssmp/internal/fabric"
	"ssmp/internal/mem"
	"ssmp/internal/msg"
)

// dirEntry is the central directory's state for one block.
type dirEntry struct {
	owner   int          // exclusive owner, -1 if none
	sharers map[int]bool // shared copies (superset: silent S evictions leave stale bits)
	// broadcast is the limited-directory overflow bit (Dir-i-B): the
	// pointer set overflowed, so an exclusive request must invalidate by
	// broadcast.
	broadcast bool
	// busy marks a read-forward in flight (awaiting the owner's memory
	// update); requests queue behind it.
	busy  bool
	waitQ []*msg.Msg
}

// Home is the directory-side WBI controller for the blocks homed at one
// node.
type Home struct {
	f       *fabric.Fabric
	id      int
	geom    mem.Geometry
	store   *mem.Store
	station *fabric.Station
	dir     map[mem.Block]*dirEntry

	// MaxPointers caps the per-block sharer pointer count (the Dir-i-B
	// limited directory the paper's directory-scalability discussion
	// refers to, citing Stenström's survey). When the pointer set would
	// overflow, the entry degrades to a broadcast bit and an exclusive
	// request invalidates every node. 0 means a full map.
	MaxPointers int

	// InvSent counts invalidations issued (storm visibility);
	// Broadcasts counts overflow invalidation rounds.
	InvSent    uint64
	Broadcasts uint64
}

// NewHome builds the directory-side WBI controller over the node's memory
// module.
func NewHome(f *fabric.Fabric, id int, geom mem.Geometry, store *mem.Store) *Home {
	return &Home{f: f, id: id, geom: geom, store: store, station: fabric.NewStation(f), dir: make(map[mem.Block]*dirEntry)}
}

// Store exposes the backing store.
func (h *Home) Store() *mem.Store { return h.store }

func (h *Home) entry(b mem.Block) *dirEntry {
	e, ok := h.dir[b]
	if !ok {
		e = &dirEntry{owner: -1, sharers: make(map[int]bool)}
		h.dir[b] = e
	}
	return e
}

// Owner returns the current exclusive owner of a block, or -1.
func (h *Home) Owner(b mem.Block) int { return h.entry(b).owner }

// Handles reports whether the home controller consumes this message kind.
func (h *Home) Handles(k msg.Kind) bool {
	switch k {
	case msg.GetS, msg.GetX, msg.PutX, msg.OwnerDataMem:
		return true
	}
	return false
}

// Handle processes an inbound message after the central-directory check.
func (h *Home) Handle(m *msg.Msg) {
	h.station.Process(func() { h.process(m) })
}

// addSharer records a sharer pointer, degrading to the broadcast bit on
// limited-directory overflow.
func (h *Home) addSharer(e *dirEntry, n int) {
	if e.broadcast {
		return
	}
	e.sharers[n] = true
	if h.MaxPointers > 0 && len(e.sharers) > h.MaxPointers {
		e.broadcast = true
		e.sharers = make(map[int]bool)
	}
}

func (h *Home) process(m *msg.Msg) {
	if h.geom.Home(m.Block) != h.id {
		panic(fmt.Sprintf("wbi: block %d handled by wrong home %d", m.Block, h.id))
	}
	switch m.Kind {
	case msg.GetS, msg.GetX:
		e := h.entry(m.Block)
		if e.busy || e.owner == m.Src {
			// A forward is in flight, or the requester's own
			// write-back hasn't arrived yet: queue and retry when
			// the state settles.
			e.waitQ = append(e.waitQ, m)
			return
		}
		if m.Kind == msg.GetS {
			h.gets(e, m)
		} else {
			h.getx(e, m)
		}

	case msg.PutX:
		e := h.entry(m.Block)
		if e.owner == m.Src {
			h.store.Merge(m.Block, m.Data, m.Mask)
			e.owner = -1
		}
		// A PutX from a stale owner raced with an ownership transfer;
		// its data is superseded and discarded.
		h.f.Send(&msg.Msg{Kind: msg.PutAck, Src: h.id, Dst: m.Src, Block: m.Block})
		h.drain(e)

	case msg.OwnerDataMem:
		// Owner downgraded (served a forwarded read): memory becomes
		// current, ownership dissolves into sharing.
		e := h.entry(m.Block)
		h.store.Merge(m.Block, m.Data, m.Mask)
		if e.owner == m.Src {
			if m.Aux == 1 {
				// The owner served from its write-back buffer
				// and retains no copy.
				delete(e.sharers, m.Src)
			} else {
				h.addSharer(e, m.Src)
			}
			e.owner = -1
		}
		e.busy = false
		h.drain(e)

	default:
		panic(fmt.Sprintf("wbi: home %d cannot handle %v", h.id, m.Kind))
	}
}

// gets services a read request with the directory not busy and the
// requester not the stale owner.
func (h *Home) gets(e *dirEntry, m *msg.Msg) {
	if e.owner >= 0 {
		// Forward to the dirty owner; it supplies the requester and
		// updates memory. The directory is busy until the memory
		// update arrives.
		e.busy = true
		h.addSharer(e, m.Src)
		h.f.Send(&msg.Msg{Kind: msg.FwdGetS, Src: h.id, Dst: e.owner, Block: m.Block, Requester: m.Src})
		return
	}
	h.addSharer(e, m.Src)
	b := m.Block
	src := m.Src
	h.f.Eng.After(h.f.Time.TMem, func() {
		h.f.Send(&msg.Msg{Kind: msg.DataS, Src: h.id, Dst: src, Block: b, Data: h.store.ReadBlock(b)})
	})
}

// getx services an exclusive request.
func (h *Home) getx(e *dirEntry, m *msg.Msg) {
	if e.owner >= 0 {
		// Ownership transfers through the current owner.
		h.f.Send(&msg.Msg{Kind: msg.FwdGetX, Src: h.id, Dst: e.owner, Block: m.Block, Requester: m.Src})
		e.owner = m.Src
		return
	}
	// Invalidate every shared copy; acks flow directly to the requester.
	acks := 0
	if e.broadcast {
		// Overflowed limited directory: invalidate by broadcast.
		h.Broadcasts++
		for n := 0; n < h.geom.Nodes; n++ {
			if n == m.Src {
				continue
			}
			acks++
			h.InvSent++
			h.f.Send(&msg.Msg{Kind: msg.Inv, Src: h.id, Dst: n, Block: m.Block, Requester: m.Src})
		}
	} else {
		// Deterministic invalidation order: map iteration order would
		// otherwise leak into network timing.
		sharers := make([]int, 0, len(e.sharers))
		for n := range e.sharers {
			sharers = append(sharers, n)
		}
		sort.Ints(sharers)
		for _, n := range sharers {
			if n == m.Src {
				continue
			}
			acks++
			h.InvSent++
			h.f.Send(&msg.Msg{Kind: msg.Inv, Src: h.id, Dst: n, Block: m.Block, Requester: m.Src})
		}
	}
	e.broadcast = false
	e.sharers = make(map[int]bool)
	e.owner = m.Src
	b := m.Block
	src := m.Src
	h.f.Eng.After(h.f.Time.TMem, func() {
		h.f.Send(&msg.Msg{Kind: msg.DataX, Src: h.id, Dst: src, Block: b, Data: h.store.ReadBlock(b), Acks: acks})
	})
}

// drain retries queued requests after a state change.
func (h *Home) drain(e *dirEntry) {
	if e.busy || len(e.waitQ) == 0 {
		return
	}
	q := e.waitQ
	e.waitQ = nil
	for i, m := range q {
		if e.busy || e.owner == m.Src {
			// Still blocked: requeue the remainder in order.
			e.waitQ = append(e.waitQ, q[i:]...)
			return
		}
		if m.Kind == msg.GetS {
			h.gets(e, m)
		} else {
			h.getx(e, m)
		}
	}
}

// BroadcastMode reports whether the block's directory entry has overflowed
// to broadcast invalidation (tests and diagnostics).
func (h *Home) BroadcastMode(b mem.Block) bool { return h.entry(b).broadcast }
