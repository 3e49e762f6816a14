package wbi

import (
	"fmt"

	"ssmp/internal/cache"
	"ssmp/internal/fabric"
	"ssmp/internal/mem"
	"ssmp/internal/msg"
)

// pending tracks the node's single outstanding coherence transaction.
type pending struct {
	isX      bool // GetX (write/RMW) vs GetS (read)
	block    mem.Block
	wordIdx  int
	apply    func(old mem.Word) mem.Word // nil for reads
	done     func(mem.Word)
	needAcks int
	gotAcks  int
	dataIn   bool
	data     []mem.Word
	excl     bool
	// poisoned marks a read whose reply was overtaken by an invalidation
	// (the Inv was sent after the directory recorded us as a sharer but
	// before the delayed data reply left the home). The read completes
	// with the — legally stale — value, but the line is not retained, so
	// the next read fetches fresh data.
	poisoned bool
	// buffered holds forwarded requests that arrived while this
	// transaction was still in flight; they are served on completion.
	buffered []*msg.Msg
}

func (p *pending) complete() bool {
	return p.dataIn && p.gotAcks == p.needAcks
}

// wbEntry is an in-flight write-back: the data is retained until the home
// acknowledges, so forwarded requests can still be served.
type wbEntry struct {
	data []mem.Word
}

// Node is the cache-side WBI controller of one processor node.
type Node struct {
	f       *fabric.Fabric
	id      int
	geom    mem.Geometry
	cache   *cache.Cache
	station *fabric.Station
	pend    *pending
	wb      map[mem.Block]wbEntry

	// Invalidations counts Inv messages received (storm visibility).
	Invalidations uint64
}

// NewNode builds the cache-side WBI controller.
func NewNode(f *fabric.Fabric, id int, geom mem.Geometry, c *cache.Cache) *Node {
	return &Node{f: f, id: id, geom: geom, cache: c, station: fabric.NewStation(f), wb: make(map[mem.Block]wbEntry)}
}

// Cache exposes the node's cache.
func (n *Node) Cache() *cache.Cache { return n.cache }

// Read performs a coherent read: a hit in S or M is local; a miss issues
// GetS.
func (n *Node) Read(a mem.Addr, done func(mem.Word)) {
	b := n.geom.BlockOf(a)
	wi := n.geom.WordIndex(a)
	if l := n.cache.Lookup(b); l != nil {
		n.f.RMR.LocalHit(n.id)
		w := l.Data[wi]
		n.f.HitDone(done, w)
		return
	}
	n.start(&pending{block: b, wordIdx: wi, done: done})
}

// Write performs a strongly-consistent coherent write: a hit in M is local;
// otherwise the node acquires exclusive ownership (invalidating all other
// copies) and stalls until the transaction completes.
func (n *Node) Write(a mem.Addr, w mem.Word, done func()) {
	b := n.geom.BlockOf(a)
	wi := n.geom.WordIndex(a)
	if l := n.cache.Lookup(b); l != nil && l.Excl {
		n.f.RMR.LocalHit(n.id)
		l.Data[wi] = w
		l.Dirty.Set(wi)
		n.f.Eng.After(n.f.Time.CacheHit, done)
		return
	}
	n.start(&pending{
		isX: true, block: b, wordIdx: wi,
		apply: func(mem.Word) mem.Word { return w },
		done:  func(mem.Word) { done() },
	})
}

// RMW performs an atomic read-modify-write: the node acquires exclusive
// ownership, applies op to the addressed word, and returns the *old* value.
// This is the fetch-and-Φ style primitive software locks are built from.
func (n *Node) RMW(a mem.Addr, op func(mem.Word) mem.Word, done func(old mem.Word)) {
	b := n.geom.BlockOf(a)
	wi := n.geom.WordIndex(a)
	if l := n.cache.Lookup(b); l != nil && l.Excl {
		n.f.RMR.LocalHit(n.id)
		old := l.Data[wi]
		l.Data[wi] = op(old)
		l.Dirty.Set(wi)
		n.f.HitDone(done, old)
		return
	}
	n.start(&pending{isX: true, block: b, wordIdx: wi, apply: op, done: done})
}

func (n *Node) start(p *pending) {
	if n.pend != nil {
		panic(fmt.Sprintf("wbi: node %d issued a request with one outstanding", n.id))
	}
	n.pend = p
	n.f.RMR.RemoteRef(n.id)
	kind := msg.GetS
	if p.isX {
		kind = msg.GetX
	}
	n.f.Send(&msg.Msg{Kind: kind, Src: n.id, Dst: n.geom.Home(p.block), Block: p.block})
}

// install places the completed transaction's block into the cache and
// finishes the pending operation.
func (n *Node) finish() {
	p := n.pend
	if p.poisoned {
		// Complete the read without installing the superseded line.
		n.pend = nil
		p.done(p.data[p.wordIdx])
		return
	}
	var l *cache.Line
	if existing := n.cache.Peek(p.block); existing != nil {
		// Upgrade: the line was already present in S.
		l = existing
		copy(l.Data, p.data)
	} else {
		l = n.installBlock(p.block, p.data)
	}
	l.Excl = p.excl
	old := l.Data[p.wordIdx]
	if p.apply != nil {
		l.Data[p.wordIdx] = p.apply(old)
		l.Dirty.Set(p.wordIdx)
	}
	buffered := p.buffered
	n.pend = nil
	done := p.done
	done(old)
	// Serve forwarded requests that queued behind the acquisition.
	for _, m := range buffered {
		n.process(m)
	}
}

func (n *Node) installBlock(b mem.Block, data []mem.Word) *cache.Line {
	l, victim, evicted := n.cache.Allocate(b)
	copy(l.Data, data)
	if evicted && victim.Dirty.Any() {
		n.evictDirty(victim)
	}
	return l
}

// evictDirty issues a PutX for a dirty victim, retaining the data until the
// home acknowledges so forwarded requests can be served meanwhile.
func (n *Node) evictDirty(v cache.Victim) {
	n.f.RMR.Writeback(n.id)
	n.wb[v.Block] = wbEntry{data: v.Data}
	n.f.Send(&msg.Msg{
		Kind: msg.PutX, Src: n.id, Dst: n.geom.Home(v.Block),
		Block: v.Block, Data: v.Data, Mask: v.Dirty,
	})
}

// Handles reports whether the node controller consumes this message kind.
func (n *Node) Handles(k msg.Kind) bool {
	switch k {
	case msg.DataS, msg.DataX, msg.Inv, msg.InvAck, msg.FwdGetS, msg.FwdGetX,
		msg.OwnerData, msg.PutAck:
		return true
	}
	return false
}

// Handle processes an inbound message after the cache-directory check.
func (n *Node) Handle(m *msg.Msg) {
	n.station.Process(func() { n.process(m) })
}

func (n *Node) process(m *msg.Msg) {
	switch m.Kind {
	case msg.DataS, msg.OwnerData:
		p := n.pend
		if p == nil || p.block != m.Block {
			panic(fmt.Sprintf("wbi: node %d data reply for %d without request", n.id, m.Block))
		}
		p.dataIn = true
		p.data = m.Data
		// OwnerData answers both FwdGetS and FwdGetX; exclusivity
		// follows the pending request's kind.
		p.excl = p.isX
		if p.complete() {
			n.finish()
		}

	case msg.DataX:
		p := n.pend
		if p == nil || p.block != m.Block || !p.isX {
			panic(fmt.Sprintf("wbi: node %d DataX for %d without GetX", n.id, m.Block))
		}
		p.dataIn = true
		p.data = m.Data
		p.excl = true
		p.needAcks = m.Acks
		if p.complete() {
			n.finish()
		}

	case msg.InvAck:
		p := n.pend
		if p == nil || p.block != m.Block {
			panic(fmt.Sprintf("wbi: node %d stray InvAck for %d", n.id, m.Block))
		}
		p.gotAcks++
		if p.complete() {
			n.finish()
		}

	case msg.Inv:
		n.Invalidations++
		n.cache.Invalidate(m.Block) // silent even if dirty: invalidator's copy supersedes
		if p := n.pend; p != nil && p.block == m.Block && !p.isX {
			// The in-flight read reply is already superseded.
			p.poisoned = true
		}
		n.f.Send(&msg.Msg{Kind: msg.InvAck, Src: n.id, Dst: m.Requester, Block: m.Block})

	case msg.FwdGetS:
		n.serveFwd(m, false)

	case msg.FwdGetX:
		n.serveFwd(m, true)

	case msg.PutAck:
		delete(n.wb, m.Block)

	default:
		panic(fmt.Sprintf("wbi: node %d cannot handle %v", n.id, m.Kind))
	}
}

// serveFwd supplies a forwarded requester from the owned line, the
// write-back buffer, or — if the acquisition is itself still in flight —
// buffers the request until it completes.
func (n *Node) serveFwd(m *msg.Msg, exclusive bool) {
	if l := n.cache.Peek(m.Block); l != nil && l.Excl {
		data := append([]mem.Word(nil), l.Data...)
		if exclusive {
			n.cache.Invalidate(m.Block)
		} else {
			l.Excl = false
			l.Dirty = 0
			// Downgrade updates memory so the directory can serve
			// future readers.
			n.f.Send(&msg.Msg{Kind: msg.OwnerDataMem, Src: n.id, Dst: n.geom.Home(m.Block), Block: m.Block, Data: data, Mask: mem.Full(n.geom.BlockWords)})
		}
		n.f.Send(&msg.Msg{Kind: msg.OwnerData, Src: n.id, Dst: m.Requester, Block: m.Block, Data: data})
		return
	}
	if e, ok := n.wb[m.Block]; ok {
		if !exclusive {
			n.f.Send(&msg.Msg{Kind: msg.OwnerDataMem, Src: n.id, Dst: n.geom.Home(m.Block), Block: m.Block, Data: e.data, Mask: mem.Full(n.geom.BlockWords), Aux: 1})
		}
		n.f.Send(&msg.Msg{Kind: msg.OwnerData, Src: n.id, Dst: m.Requester, Block: m.Block, Data: e.data})
		return
	}
	if p := n.pend; p != nil && p.block == m.Block {
		p.buffered = append(p.buffered, m)
		return
	}
	panic(fmt.Sprintf("wbi: node %d forwarded %v for %d it does not own", n.id, m.Kind, m.Block))
}
