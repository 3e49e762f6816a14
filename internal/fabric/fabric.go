// Package fabric wires the protocol controllers to the interconnection
// network: it stamps and counts every message, applies the paper's timing
// parameters (t_D for a directory check, t_m for a main-memory block access),
// and provides the per-node service resources that serialize directory
// processing.
package fabric

import (
	"ssmp/internal/mem"
	"ssmp/internal/metrics"
	"ssmp/internal/msg"
	"ssmp/internal/network"
	"ssmp/internal/sim"
)

// Timing holds the machine's latency parameters in cycles, named after the
// paper's cost-model symbols (§5.1, Table 4).
type Timing struct {
	// CacheHit is the cost of a cache hit (one cache cycle).
	CacheHit sim.Time
	// TDir is t_D: the time to check the central directory or a cache
	// directory.
	TDir sim.Time
	// TMem is t_m: the main-memory cycle time for reading a block
	// (Table 4: 4 cache cycles).
	TMem sim.Time
}

// DefaultTiming returns the Table 4 parameter values.
func DefaultTiming() Timing {
	return Timing{CacheHit: 1, TDir: 1, TMem: 4}
}

// Fabric bundles the engine, the network, the timing parameters, and the
// global message collector.
type Fabric struct {
	Eng  *sim.Engine
	Net  *network.Network
	Time Timing
	Coll *metrics.Collector
	// RMR attributes each shared reference — classified local vs remote by
	// the cache-side protocol controllers at their hit/miss decision points
	// — to the issuing processor.
	RMR *metrics.RMRAccount
	// OnSend, when set, observes every message at injection time (message
	// tracing / debugging). It must not mutate the message.
	OnSend func(*msg.Msg)
	// xp is the reliable transport, enabled alongside the network's fault
	// plane (see transport.go); nil otherwise.
	xp *transport
}

// New builds a fabric over an engine and network.
func New(eng *sim.Engine, net *network.Network, t Timing) *Fabric {
	return &Fabric{Eng: eng, Net: net, Time: t, Coll: &metrics.Collector{}, RMR: metrics.NewRMRAccount(net.Nodes())}
}

// View returns a per-node fabric bound to one lane engine of a parallel
// (PDES) run. The view shares the network, the timing parameters, and the
// RMR account with the root fabric — RMR rows are per-processor and only
// ever written by the owning node's lane — but owns its message collector
// and, once EnableTransport is called on it, its own reliable-transport
// instance (a node's transport touches only the sender state of its
// outgoing links and the receiver state of its incoming ones, and acks
// always land back on the sending node's view). Per-view collectors are
// merged into the root after the run; sums are order-independent, so the
// merged totals are identical at any worker count.
func (f *Fabric) View(eng *sim.Engine) *Fabric {
	return &Fabric{Eng: eng, Net: f.Net, Time: f.Time, Coll: &metrics.Collector{}, RMR: f.RMR}
}

// Send counts and transmits a message. The message's Words() determine its
// network occupancy. With the reliable transport enabled, the message is
// tracked for acknowledgment and retransmission before injection.
func (f *Fabric) Send(m *msg.Msg) {
	if f.xp != nil && m.Kind != msg.NetAck && !f.Net.LocalBypass(m.Src, m.Dst) {
		f.xp.track(m)
	}
	f.sendRaw(m)
}

// sendRaw counts and injects without transport tracking: first
// transmissions, retransmissions (each is real traffic and counts as such),
// and acks all pass through here.
func (f *Fabric) sendRaw(m *msg.Msg) {
	f.Coll.Count(m.Kind)
	if f.OnSend != nil {
		f.OnSend(m)
	}
	f.Net.Send(m.Src, m.Dst, m.Words(), m)
}

// HitDone schedules done(w) one cache hit from now: the completion of a
// request the cache serves locally. It allocates nothing — a func value is
// pointer-shaped, so wordDone boxes into the Stepper interface as is, and w
// travels as the step argument instead of in a closure.
func (f *Fabric) HitDone(done func(mem.Word), w mem.Word) {
	f.Eng.AfterStep(f.Time.CacheHit, wordDone(done), uint64(w))
}

// wordDone adapts a word-completion callback to sim.Stepper.
type wordDone func(mem.Word)

func (d wordDone) OnStep(w uint64) { d(mem.Word(w)) }

// Attach registers node's protocol dispatch with the network, interposing
// the reliable transport when it is enabled. Components that attach through
// the fabric get exactly-once, per-link-FIFO delivery whether or not the
// fault plane is active.
func (f *Fabric) Attach(node int, h func(*msg.Msg)) {
	if f.xp == nil {
		f.Net.Attach(node, func(p any) { h(p.(*msg.Msg)) })
		return
	}
	f.Net.Attach(node, func(p any) { f.xp.receive(node, p.(*msg.Msg), h) })
}

// Station is a per-node message-processing front end: incoming messages are
// serialized through a directory-check resource (t_D each) before their
// handler runs. Both cache directories and the central directory use one.
type Station struct {
	f   *Fabric
	res sim.Resource
}

// NewStation returns a station on the fabric.
func NewStation(f *Fabric) *Station { return &Station{f: f} }

// Process schedules fn after the station's directory-check delay, honoring
// queueing at the directory.
func (s *Station) Process(fn func()) {
	done := s.res.Acquire(s.f.Eng.Now(), s.f.Time.TDir)
	s.f.Eng.At(done, fn)
}

// ProcessAfter schedules fn after the directory check plus an extra delay
// (e.g. t_m for a memory block read). The station is occupied for the whole
// duration: the directory and its memory module service one transaction at
// a time.
func (s *Station) ProcessAfter(extra sim.Time, fn func()) {
	done := s.res.Acquire(s.f.Eng.Now(), s.f.Time.TDir+extra)
	s.f.Eng.At(done, fn)
}

// Busy returns the cycles the station has been occupied.
func (s *Station) Busy() sim.Time { return s.res.Busy }
