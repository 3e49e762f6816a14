package core

import (
	"context"
	"fmt"
	"io"

	"ssmp/internal/barrier"
	"ssmp/internal/cache"
	"ssmp/internal/cbl"
	"ssmp/internal/fabric"
	"ssmp/internal/history"
	"ssmp/internal/mem"
	"ssmp/internal/metrics"
	"ssmp/internal/msg"
	"ssmp/internal/network"
	"ssmp/internal/ruc"
	"ssmp/internal/sim"
	"ssmp/internal/wbi"
	"ssmp/internal/wbuf"
)

// node bundles one processor node's controllers. Exactly one of the CBL or
// WBI controller sets is populated, per the machine's protocol.
type node struct {
	id    int
	store *mem.Store
	proc  *Proc

	// CBL machine
	rucN *ruc.Node
	rucH *ruc.Home
	cblU *cbl.Unit
	cblH *cbl.Home
	barU *barrier.Unit
	barH *barrier.Home
	buf  *wbuf.Buffer

	// WBI machine
	wbiN *wbi.Node
	wbiH *wbi.Home
}

// Machine is a simulated multiprocessor.
type Machine struct {
	cfg   Config
	eng   *sim.Engine   // serial engine; nil under lane mode
	par   *sim.Parallel // PDES coordinator; nil under the serial engine
	net   *network.Network
	fab   *fabric.Fabric   // root fabric; aggregation target under lane mode
	views []*fabric.Fabric // per-node fabric views (lane mode only)
	geom  mem.Geometry
	nodes []*node

	running      bool
	hist         *history.Recorder
	onOp         func(OpRecord)
	laneFallback string // why SimWorkers degraded to serial ("" = it didn't)
}

// NewMachine builds a machine; it panics on an invalid configuration.
//
// With Config.SimWorkers > 0 the machine is assembled in lane mode: one sim
// engine per node, per-node fabric views with their own message collectors
// and transport instances, and a PDES coordinator whose lookahead is the
// network's minimum cross-node latency. Everything a node's controllers
// touch — store, cache, lock cache, write buffer, RMR row, per-link fault
// streams and transport state — is owned by that node's lane; the only
// cross-lane channels are the network's deterministic window merge and,
// with contention on, the coordinator's window-barrier port arbiter
// (network.NewParallel). The bus topology degrades to the serial engine;
// Lanes and LaneFallback report the decision.
func NewMachine(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	lanes := cfg.SimWorkers > 0
	laneFallback := ""
	if lanes && cfg.Topology == network.TopBus {
		// The bus is one global serially-reusable resource: every cross-node
		// message would serialize through the barrier arbiter, so lane mode
		// offers zero parallelism and pure coordination overhead.
		lanes, laneFallback = false, LaneFallbackBus
	}
	var eng *sim.Engine
	var par *sim.Parallel
	var nw *network.Network
	if lanes {
		par = sim.NewParallel(cfg.Nodes)
		par.SetHorizon(cfg.Horizon)
		if cfg.Jitter != 0 {
			par.SetJitter(cfg.Jitter)
		}
		nw = network.NewParallel(par, cfg.netConfig())
	} else {
		eng = sim.NewEngine()
		eng.SetHorizon(cfg.Horizon)
		if cfg.Jitter != 0 {
			eng.SetJitter(cfg.Jitter)
		}
		nw = network.New(eng, cfg.netConfig())
	}
	fab := fabric.New(eng, nw, cfg.Timing)
	if !lanes && nw.FaultsEnabled() {
		// A faulty fabric needs the reliable transport above it; the two
		// are enabled together so the protocol controllers always see
		// exactly-once, per-link-FIFO delivery.
		fab.EnableTransport(cfg.FaultRTO)
	}
	geom := mem.Geometry{BlockWords: cfg.BlockWords, Nodes: cfg.Nodes}
	m := &Machine{cfg: cfg, eng: eng, par: par, net: nw, fab: fab, geom: geom, laneFallback: laneFallback}

	for i := 0; i < cfg.Nodes; i++ {
		n := &node{id: i, store: mem.NewStore(geom)}
		nodeEng, nodeFab := eng, fab
		if lanes {
			nodeEng = par.Lane(i)
			nodeFab = fab.View(nodeEng)
			if nw.FaultsEnabled() {
				nodeFab.EnableTransport(cfg.FaultRTO)
			}
			m.views = append(m.views, nodeFab)
		}
		switch cfg.Protocol {
		case ProtoCBL:
			n.rucN = ruc.NewNode(nodeFab, i, geom, cache.New(geom, cfg.CacheSets, cfg.CacheWays))
			n.rucH = ruc.NewHome(nodeFab, i, geom, n.store)
			n.rucH.WriteUpdateMode = cfg.WriteUpdate
			n.cblU = cbl.NewUnit(nodeFab, i, geom, cfg.LockEntries)
			n.cblU.DirectHandoff = cfg.DirectHandoff
			n.cblH = cbl.NewHome(nodeFab, i, geom, n.store)
			n.barU = barrier.NewUnit(nodeFab, i, geom)
			n.barH = barrier.NewHome(nodeFab, i, geom)
			n.buf = wbuf.New(nodeEng, cfg.Buf, n.rucN.IssueWriteGlobal)
			n.rucN.SetGlobalAckHandler(n.buf.Ack)
		case ProtoWBI:
			n.wbiN = wbi.NewNode(nodeFab, i, geom, cache.New(geom, cfg.CacheSets, cfg.CacheWays))
			n.wbiH = wbi.NewHome(nodeFab, i, geom, n.store)
			n.wbiH.MaxPointers = cfg.DirMaxPointers
		}
		n.proc = newProc(m, n, nodeEng)
		m.nodes = append(m.nodes, n)
		i := i
		nodeFab.Attach(i, func(mg *msg.Msg) { m.dispatch(i, mg) })
	}
	return m
}

// Lanes returns the number of PDES lanes the machine runs on, or 0 when it
// uses the classic serial engine (SimWorkers == 0, or a configuration that
// is not lane-safe and degraded to serial — see LaneFallback).
func (m *Machine) Lanes() int {
	if m.par == nil {
		return 0
	}
	return m.par.Lanes()
}

// LaneFallbackBus is the LaneFallback reason reported when SimWorkers was
// requested on the bus topology: the bus is a single global shared medium,
// so lane mode would serialize every message through the barrier arbiter —
// all coordination cost, zero available parallelism — and the machine
// deliberately runs the serial engine instead.
const LaneFallbackBus = "bus_topology"

// LaneFallback returns a machine-readable reason when Config.SimWorkers > 0
// was requested but the machine degraded to the serial engine, or "" when
// lane mode is active (or was never requested). The same value is surfaced
// on Result.LaneFallback so callers that only see run output — the ssmpd
// API among them — can tell a degraded run from a parallel one.
func (m *Machine) LaneFallback() string { return m.laneFallback }

// dispatch routes an inbound message to the owning controller.
func (m *Machine) dispatch(nodeID int, mg *msg.Msg) {
	n := m.nodes[nodeID]
	if m.cfg.Protocol == ProtoWBI {
		if n.wbiH.Handles(mg.Kind) {
			n.wbiH.Handle(mg)
		} else {
			n.wbiN.Handle(mg)
		}
		return
	}
	switch {
	case mg.Kind == msg.SetPrevPtr || mg.Kind == msg.SetNextPtr:
		// Lock-queue splices are flagged with a lock mode; update-chain
		// splices are not.
		if mg.Mode != msg.LockNone {
			n.cblU.Handle(mg)
		} else {
			n.rucN.Handle(mg)
		}
	case n.cblH.Handles(mg.Kind):
		n.cblH.Handle(mg)
	case n.cblU.Handles(mg.Kind):
		n.cblU.Handle(mg)
	case n.barH.Handles(mg.Kind):
		n.barH.Handle(mg)
	case n.barU.Handles(mg.Kind):
		n.barU.Handle(mg)
	case n.rucH.Handles(mg.Kind):
		n.rucH.Handle(mg)
	case n.rucN.Handles(mg.Kind):
		n.rucN.Handle(mg)
	default:
		panic(fmt.Sprintf("core: node %d cannot dispatch %v", nodeID, mg.Kind))
	}
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Geometry returns the address-space geometry.
func (m *Machine) Geometry() mem.Geometry { return m.geom }

// Engine exposes the simulation engine (read-only use recommended). Under
// lane mode there is no single engine; Engine returns nil and callers
// needing a clock should use Now.
func (m *Machine) Engine() *sim.Engine { return m.eng }

// Now returns the simulation clock: the serial engine's time, or under
// lane mode the maximum event time fired so far (meaningful between
// windows — i.e. after the run).
func (m *Machine) Now() sim.Time {
	if m.par != nil {
		return m.par.Now()
	}
	return m.eng.Now()
}

// Proc returns processor i's handle, for use inside its program function.
func (m *Machine) Proc(i int) *Proc { return m.nodes[i].proc }

// Messages returns the global message collector.
func (m *Machine) Messages() *metrics.Collector { return m.fab.Coll }

// RMRs returns the per-processor remote-memory-reference account. The
// cache-side controllers classify every shared reference as local (served
// by the issuing node's cache or lock cache) or remote (required an
// interconnect transaction) at their hit/miss decision points.
func (m *Machine) RMRs() *metrics.RMRAccount { return m.fab.RMR }

// EnableHistory turns on operation recording for linearizability checking:
// every Read/Write/ReadGlobal/WriteGlobal/RMW is logged with its real-time
// interval. Call before Run; check the returned recorder afterwards.
// Serial-engine only: the recorder is a single append-ordered log, which
// lane mode would both race on and order nondeterministically.
func (m *Machine) EnableHistory() *history.Recorder {
	if m.par != nil {
		panic("core: EnableHistory requires the serial engine (SimWorkers=0)")
	}
	m.hist = &history.Recorder{}
	return m.hist
}

// TraceMessages writes one line per injected message to w — a debugging aid
// showing cycle, kind, endpoints, block and payload size. Call before Run.
// Serial-engine only: a single trace stream cannot be written from
// concurrent lanes.
func (m *Machine) TraceMessages(w io.Writer) {
	if m.par != nil {
		panic("core: TraceMessages requires the serial engine (SimWorkers=0)")
	}
	m.fab.OnSend = func(mg *msg.Msg) {
		fmt.Fprintf(w, "%10d %-18s %2d -> %2d block %-6d words %d\n",
			m.eng.Now(), mg.Kind, mg.Src, mg.Dst, mg.Block, mg.Words())
	}
}

// NetStats returns network-level statistics.
func (m *Machine) NetStats() network.Stats { return m.net.Stats() }

// ReadMemory reads a word directly from the owning memory module, outside
// the simulation (for seeding and verification).
func (m *Machine) ReadMemory(a mem.Addr) mem.Word {
	return m.nodes[m.geom.Home(m.geom.BlockOf(a))].store.ReadWord(a)
}

// WriteMemory writes a word directly into the owning memory module, outside
// the simulation (for seeding initial data).
func (m *Machine) WriteMemory(a mem.Addr, w mem.Word) {
	m.nodes[m.geom.Home(m.geom.BlockOf(a))].store.WriteWord(a, w)
}

// Program is the code executed by one simulated processor. It runs as a
// coroutine of the event loop that owns its node, which resumes it when one
// of its operations completes, so it never runs at the same time as its
// node's event handlers. Under lane mode the programs of different nodes
// may run in parallel on different lane workers, so Go state they share
// outside the simulation needs its own synchronization.
type Program func(p *Proc)

// Result summarizes a completed run.
type Result struct {
	// Cycles is the completion time: the clock when the last processor
	// finished.
	Cycles sim.Time
	// Events is the number of simulation events the kernel executed.
	Events uint64
	// Messages is the total network message count.
	Messages uint64
	// MeanNetLatency and MeanNetQueueing summarize network behaviour.
	MeanNetLatency  float64
	MeanNetQueueing float64
	// MeanUtilization averages the per-processor useful-computation
	// fraction (see ProcStats.Utilization) over processors that ran.
	MeanUtilization float64
	// Faults reports fault injection and transport recovery counters
	// (all zero when Config.Faults is disabled).
	Faults metrics.FaultCounters
	// RMR totals the remote-memory-reference classification over all
	// processors; Machine.RMRs has the per-processor breakdown.
	RMR metrics.RMRCounters
	// LaneFallback is the machine-readable reason this run degraded to the
	// serial engine despite Config.SimWorkers > 0 (e.g. LaneFallbackBus).
	// Empty when lane mode ran, or when SimWorkers was 0.
	LaneFallback string
}

// ErrDeadlock is returned when the event queue drains with processors still
// blocked (for example a lock that is never released).
type ErrDeadlock struct{ Stuck []int }

func (e *ErrDeadlock) Error() string {
	return fmt.Sprintf("core: deadlock — processors %v blocked with no pending events", e.Stuck)
}

// drainAborted stops every unfinished program coroutine after the event
// loop has ended early (cancellation, horizon, deadlock). A suspended
// program unwinds via an abortSignal panic; one never resumed is discarded
// without running. Either way no coroutine outlives the run.
func (m *Machine) drainAborted() {
	for _, n := range m.nodes {
		if !n.proc.done {
			n.proc.stop()
		}
	}
}

// Run executes one program per processor to completion and returns the
// run's metrics. Programs[i] runs on processor i; a nil entry idles that
// processor. Run may be called once per Machine.
func (m *Machine) Run(programs []Program) (Result, error) {
	return m.RunContext(context.Background(), programs)
}

// RunContext is Run with cancellation: when ctx is cancelled (or its
// deadline passes) the event loop stops at the next interrupt poll, every
// unfinished program is unwound, and the ctx error is returned. Cancellation
// cannot perturb a completed run's determinism — it only ends a run early.
func (m *Machine) RunContext(ctx context.Context, programs []Program) (Result, error) {
	if m.running {
		panic("core: Machine.Run called twice")
	}
	m.running = true
	if len(programs) != m.cfg.Nodes {
		panic(fmt.Sprintf("core: %d programs for %d nodes", len(programs), m.cfg.Nodes))
	}
	if ctx.Done() != nil {
		poll := func() error {
			select {
			case <-ctx.Done():
				return ctx.Err()
			default:
				return nil
			}
		}
		if m.par != nil {
			m.par.SetInterrupt(poll)
		} else {
			m.eng.SetInterrupt(poll)
		}
	}
	for i, prog := range programs {
		if prog == nil {
			m.nodes[i].proc.done = true
			continue
		}
		m.nodes[i].proc.start(prog)
	}
	var err error
	if m.par != nil {
		err = m.par.Run(m.cfg.SimWorkers)
	} else {
		err = m.eng.Run()
	}
	if err != nil {
		err = fmt.Errorf("core: %w at cycle %d", err, m.Now())
	} else {
		var stuck []int
		for _, n := range m.nodes {
			if !n.proc.done {
				stuck = append(stuck, n.id)
			}
		}
		if stuck != nil {
			err = &ErrDeadlock{Stuck: stuck}
		}
	}
	if err != nil {
		m.drainAborted()
	}
	// A program panic is reported ahead of the deadlock or horizon it may
	// have caused in the processors waiting on it.
	for _, n := range m.nodes {
		if n.proc.err != nil {
			return Result{}, fmt.Errorf("core: processor %d panicked: %v", n.id, n.proc.err)
		}
	}
	if err != nil {
		return Result{}, err
	}
	// Under lane mode, fold the per-view message collectors into the root
	// fabric's, so Messages() and Result.Messages read as in serial mode.
	// Sums are order-independent: the merged totals are bit-identical at
	// any worker count.
	for _, v := range m.views {
		m.fab.Coll.Add(v.Coll)
	}
	st := m.net.Stats()
	var utilSum float64
	var utilN int
	for i, prog := range programs {
		if prog == nil {
			continue
		}
		utilSum += m.nodes[i].proc.Stats().Utilization()
		utilN++
	}
	res := Result{
		Cycles:          m.Now(),
		Events:          m.events(),
		Messages:        m.fab.Coll.Total(),
		MeanNetLatency:  st.MeanLatency(),
		MeanNetQueueing: st.MeanQueueing(),
		Faults:          m.faultCounters(),
		RMR:             m.fab.RMR.Total(),
		LaneFallback:    m.laneFallback,
	}
	if utilN > 0 {
		res.MeanUtilization = utilSum / float64(utilN)
	}
	return res, nil
}

// events returns the total number of kernel events executed.
func (m *Machine) events() uint64 {
	if m.par != nil {
		return m.par.Fired()
	}
	return m.eng.Fired()
}

// faultCounters aggregates fault injection and transport recovery counters.
// Under lane mode the injection counters come from the network's sharded
// fault plane and the recovery counters are summed over the per-node
// transport instances.
func (m *Machine) faultCounters() metrics.FaultCounters {
	if m.par == nil {
		return m.fab.FaultCounters()
	}
	fs := m.net.Stats().Faults
	c := metrics.FaultCounters{
		Dropped:     fs.Dropped,
		Duplicated:  fs.Duplicated,
		Delayed:     fs.Delayed,
		DelayCycles: uint64(fs.DelayCycles),
	}
	for _, v := range m.views {
		r, d, ro, a := v.TransportStats()
		c.Retries += r
		c.DupSuppressed += d
		c.Reordered += ro
		c.AcksSent += a
	}
	return c
}
