package platform

import (
	"fmt"
	"sort"

	"optanestudy/internal/cache"
	"optanestudy/internal/dimm"
	"optanestudy/internal/imc"
	"optanestudy/internal/mem"
	"optanestudy/internal/sim"
	"optanestudy/internal/topology"
)

// Platform is one simulated machine. It owns its simulation engine: all
// simulated threads must be spawned through Go so that every component
// shares one timeline. It is not safe for concurrent use — the engine
// serializes procs.
type Platform struct {
	cfg    Config
	eng    *sim.Engine
	layout *topology.Layout

	channels [][]*imc.Channel // [socket][channel]
	drams    [][]*dimm.DRAMDIMM
	xps      [][]*dimm.XPDIMM
	llcs     []*cache.LLC
	home     []*homeAgent // per home socket, serving remote requests

	persist    mem.DataStore
	namespaces []*Namespace // sorted by Base
	ctxs       []*MemCtx
}

// Namespace is a platform-attached pmem namespace.
type Namespace struct {
	*topology.Namespace
	p *Platform
}

// New assembles a platform.
func New(cfg Config) (*Platform, error) {
	layout, err := topology.NewLayout(cfg.Geometry)
	if err != nil {
		return nil, err
	}
	p := &Platform{cfg: cfg, eng: sim.NewEngine(), layout: layout}
	for s := 0; s < cfg.Geometry.Sockets; s++ {
		var chs []*imc.Channel
		var drams []*dimm.DRAMDIMM
		var xps []*dimm.XPDIMM
		for c := 0; c < cfg.Geometry.ChannelsPerSocket; c++ {
			chs = append(chs, imc.NewChannel(cfg.Channel))
			drams = append(drams, dimm.NewDRAMDIMM(cfg.DRAM))
			xpCfg := cfg.XP
			xpCfg.Seed = cfg.Seed ^ uint64(s*251+c*17+1)
			xps = append(xps, dimm.NewXPDIMM(xpCfg))
		}
		p.channels = append(p.channels, chs)
		p.drams = append(p.drams, drams)
		p.xps = append(p.xps, xps)
		llcCfg := cfg.LLC
		llcCfg.Seed = cfg.Seed ^ uint64(s*977+5)
		p.llcs = append(p.llcs, cache.New(llcCfg))
		p.home = append(p.home, newHomeAgent(cfg.UPI))
	}
	return p, nil
}

// MustNew is New, panicking on error (for tests and examples with static
// configs).
func MustNew(cfg Config) *Platform {
	p, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// Config returns the platform's configuration.
func (p *Platform) Config() Config { return p.cfg }

// Now returns the current simulated time.
func (p *Platform) Now() sim.Time { return p.eng.Now() }

// Go spawns a simulated thread on the given socket, starting at the
// engine's current time, and hands it a fresh memory context. A socket the
// platform lacks panics in the thread, so Run re-raises it.
func (p *Platform) Go(name string, socket int, fn func(ctx *MemCtx)) {
	p.eng.Go(name, p.eng.Now(), func(proc *sim.Proc) {
		if socket < 0 || socket >= p.cfg.Geometry.Sockets {
			panic(fmt.Sprintf("platform: socket %d out of range", socket))
		}
		ctx := &MemCtx{p: p, proc: proc, socket: socket, wc: cache.NewWCBuffer()}
		p.ctxs = append(p.ctxs, ctx)
		fn(ctx)
	})
}

// Run executes the simulation until all spawned threads finish and returns
// the simulated time. It may be called repeatedly; time keeps advancing on
// one timeline. A panic in a thread is re-raised in the caller of Run with
// the same value; afterwards the platform may only be closed, which reaps
// the threads still parked.
func (p *Platform) Run() sim.Time { return p.eng.Run() }

// Close tears the platform down, reaping any simulated threads that were
// spawned but never run to completion (e.g. when a scenario bails out with
// an error between Go and Run, or a thread's panic ended Run early); their
// deferred functions run, and Close raises no panic of its own while a
// caller unwinds from that panic. It is idempotent, a no-op after a normal
// Run, and required by the harness statelessness contract so that
// platform-per-trial construction stays goroutine-leak-free under parallel
// sweeps. The platform must not be used afterwards.
func (p *Platform) Close() { p.eng.Stop() }

// CreateNamespace allocates a namespace per the spec.
func (p *Platform) CreateNamespace(spec topology.Spec) (*Namespace, error) {
	tns, err := p.layout.Create(spec)
	if err != nil {
		return nil, err
	}
	ns := &Namespace{Namespace: tns, p: p}
	p.namespaces = append(p.namespaces, ns)
	sort.Slice(p.namespaces, func(i, j int) bool {
		return p.namespaces[i].Base < p.namespaces[j].Base
	})
	return ns, nil
}

// Convenience constructors for the paper's standard configurations
// (Section 2.3).

// Optane creates an interleaved 3D XPoint namespace on the socket.
func (p *Platform) Optane(name string, socket int, size int64) (*Namespace, error) {
	return p.CreateNamespace(topology.Spec{Name: name, Socket: socket, Media: topology.MediaXP, Size: size})
}

// OptaneNI creates a non-interleaved (single-DIMM) 3D XPoint namespace.
func (p *Platform) OptaneNI(name string, socket, channel int, size int64) (*Namespace, error) {
	return p.CreateNamespace(topology.Spec{
		Name: name, Socket: socket, Media: topology.MediaXP, Size: size,
		Channels: []int{channel},
	})
}

// DRAM creates an interleaved DRAM namespace (emulated pmem on DRAM).
func (p *Platform) DRAM(name string, socket int, size int64) (*Namespace, error) {
	return p.CreateNamespace(topology.Spec{Name: name, Socket: socket, Media: topology.MediaDRAM, Size: size})
}

func (p *Platform) resolveGlobal(gaddr int64) *Namespace {
	i := sort.Search(len(p.namespaces), func(i int) bool {
		return p.namespaces[i].Base > gaddr
	})
	if i == 0 {
		return nil
	}
	ns := p.namespaces[i-1]
	if gaddr >= ns.Base+ns.Size {
		return nil
	}
	return ns
}

func (p *Platform) dimmOf(ns *Namespace, chanPos int) dimm.DIMM {
	ch := ns.Channels[chanPos]
	if ns.Media == topology.MediaXP {
		return p.xps[ns.Socket][ch]
	}
	return p.drams[ns.Socket][ch]
}

func (p *Platform) channelOf(ns *Namespace, chanPos int) *imc.Channel {
	return p.channels[ns.Socket][ns.Channels[chanPos]]
}

// Crash simulates a power failure: every LLC dirty line and every pending
// write-combining buffer is discarded; data already posted to the WPQs and
// media (the ADR domain) survives. With EADR configured, dirty cache lines
// drain to durable storage instead of being lost. It returns how many
// dirty cache lines were lost (always 0 lines under eADR; WC buffers are
// outside even the eADR domain and still count).
func (p *Platform) Crash() int {
	lost := 0
	for _, llc := range p.llcs {
		if p.cfg.EADR {
			llc.FlushAll(func(addr int64, data []byte, mask uint64) {
				if p.cfg.TrackData {
					persistMaskedTo(&p.persist, addr, data, mask)
				}
			})
		} else {
			lost += llc.DropAll()
		}
	}
	for _, ctx := range p.ctxs {
		lost += ctx.wc.Drop()
		ctx.resetPending()
	}
	return lost
}

// XPCounters sums the 3D XPoint DIMM counters on a socket.
func (p *Platform) XPCounters(socket int) dimm.Counters {
	var total dimm.Counters
	for _, d := range p.xps[socket] {
		total.Add(*d.Counters())
	}
	return total
}

// XPDIMMCounters snapshots the 3D XPoint DIMM counters on one
// (socket, channel) slot — the per-device readout the devstat layer
// attributes windows and health metrics from.
func (p *Platform) XPDIMMCounters(socket, channel int) dimm.Counters {
	return *p.xps[socket][channel].Counters()
}

// XPWPQStats reports the channel's WPQ accounting for its 3D XPoint DIMM:
// cumulative entry-residency (occupancy integral) and cumulative
// admission-stall time. Both are monotone cumulative values; successive
// snapshots difference into per-window utilization and stall fractions.
func (p *Platform) XPWPQStats(socket, channel int) (occupancy, stall sim.Time) {
	ch := p.channels[socket][channel]
	d := p.xps[socket][channel]
	return ch.WPQOccupancyTime(d), ch.WPQStallTime(d)
}

// UPIBytes reports the socket home agent's cumulative remote-crossing
// traffic: bytes read from and written to this socket's memory by threads
// running on another socket (every crossing is one 64 B line through the
// home agent).
func (p *Platform) UPIBytes(socket int) (read, write int64) {
	h := p.home[socket]
	return h.readBytes, h.writeBytes
}

// NamespaceCounters sums the counters of the DIMMs backing a namespace.
// Note that counters are per-DIMM: if namespaces share DIMMs, traffic is
// attributed to all of them.
func (p *Platform) NamespaceCounters(ns *Namespace) dimm.Counters {
	var total dimm.Counters
	for pos := range ns.Channels {
		total.Add(*p.dimmOf(ns, pos).Counters())
	}
	return total
}

// ReadDurable reads the namespace's durable bytes (what survives a crash),
// without simulation cost. Recovery code uses it before re-attaching timed
// contexts.
func (ns *Namespace) ReadDurable(off int64, buf []byte) {
	ns.p.persist.Read(ns.GlobalAddr(off), buf)
}

// WriteDurable installs bytes directly into durable storage with no
// simulation cost (formatting / mkfs-style initialization).
func (ns *Namespace) WriteDurable(off int64, data []byte) {
	ns.p.persist.Write(ns.GlobalAddr(off), data)
}

// Platform returns the owning platform.
func (ns *Namespace) Platform() *Platform { return ns.p }

// homeAgent orders remote traffic entering a socket (UPI + caching agent).
// Alternating reads and writes toward DDR-T pay a scheduling turnaround —
// the calibrated mechanism behind the paper's NUMA mixed-traffic collapse.
type homeAgent struct {
	cfg     UPIConfig
	srv     sim.Server
	lastOp  int // 0 none, 1 read, 2 write
	lastXP  bool
	started bool

	// Cumulative crossing traffic, one 64 B line per acquire — the
	// UPI-utilization counters the devstat layer reads.
	readBytes  int64
	writeBytes int64
}

func newHomeAgent(cfg UPIConfig) *homeAgent {
	return &homeAgent{cfg: cfg}
}

func (h *homeAgent) acquire(t sim.Time, write, xp bool) (sim.Time, sim.Time) {
	svc := h.cfg.ReadService
	op := 1
	if write {
		svc = h.cfg.WriteService
		op = 2
		h.writeBytes += 64
	} else {
		h.readBytes += 64
	}
	if h.started && h.lastOp != op {
		if xp || h.lastXP {
			svc += h.cfg.TurnaroundXP
		} else {
			svc += h.cfg.TurnaroundDRAM
		}
	}
	h.started = true
	h.lastOp = op
	h.lastXP = xp
	return h.srv.Acquire(t, svc)
}
