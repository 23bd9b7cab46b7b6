// Package softswitch implements the OpenFlow 1.3 software switch that
// HARMLESS instantiates twice per migrated device: once as the
// translator (SS_1) and once as the controller-facing main switch
// (SS_2). It executes the flow-table semantics of internal/flowtable
// over frames arriving on netem ports, patch ports into a peer switch,
// or any other PortBackend, and exposes the switch side of the OpenFlow
// channel (Agent).
//
// The hot-path entry point is ReceiveBatch (batch.go); Receive is its
// one-frame wrapper. A frame is served by the flow cache (cache.go,
// flowcache.go) — one locked map per mask-equivalence class, from the
// packed key projected through the consulted tables' masks to a recorded
// program, revalidated against table revisions on every hit — and
// otherwise by a walk of the tables' own classifiers
// (flowtable.Table.Find), which records a new entry. DESIGN.md has the
// full walk and the cache's invalidation rules.
package softswitch

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/harmless-sdn/harmless/internal/flowtable"
	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/openflow"
	"github.com/harmless-sdn/harmless/internal/pkt"
	"github.com/harmless-sdn/harmless/internal/stats"
	"github.com/harmless-sdn/harmless/internal/telemetry"
)

// DefaultNumTables is the pipeline depth advertised to controllers.
const DefaultNumTables = 4

// swPort is one datapath port: a number, counters, and where frames
// egress — the pluggable backend, or for a patch port the peer switch
// and the port they enter it on.
type swPort struct {
	no       uint32
	name     string
	backend  PortBackend // nil on a patch port
	peer     *Switch
	peerPort uint32
	counters stats.PortCounters
	hwAddr   pkt.MAC
}

// crossed counts n frames, bytes long together, that a followed crossing
// carried over patch port p: sent on p, received on the peer's end.
func (p *swPort) crossed(n int, bytes uint64) {
	p.counters.TxPackets.Add(uint64(n))
	p.counters.TxBytes.Add(bytes)
	if q := p.peer.getPort(p.peerPort); q != nil {
		q.counters.RxPackets.Add(uint64(n))
		q.counters.RxBytes.Add(bytes)
	}
}

// Switch is one software switch instance.
type Switch struct {
	name  string
	dpid  uint64
	clock netem.Clock

	tables []*flowtable.Table
	groups *flowtable.GroupTable
	meters *flowtable.MeterTable

	portMu sync.Mutex // serializes AttachPort; readers load ports
	ports  atomic.Pointer[portTable]

	numTables int // WithNumTables; the tables are built once every option ran

	cacheSize int // capacity of each mask class; <=0 disables the cache
	cache     *flowCache

	// telemetry, when non-nil, receives per-flow accounting from the
	// batch dispatch path. Atomic so it can be attached to a running
	// switch (harmlessd wires it after deployment build).
	telemetry atomic.Pointer[telemetry.Table]

	buffers *bufferPool

	agentMu sync.RWMutex
	agent   *Agent // non-nil once connected to a controller

	pktIns stats.Counter
	drops  stats.Counter
}

// portTable is one immutable snapshot of the attached ports, replaced
// wholesale on every AttachPort so the datapath's per-output lookup is
// a load and an index — no lock, no map on the usual small numbers.
type portTable struct {
	dense  []*swPort          // indexed by port number, nil where none
	sparse map[uint32]*swPort // numbers beyond maxDensePort
	all    []*swPort          // every port, ascending by number
}

// maxDensePort bounds the directly indexed part of a portTable; the
// HARMLESS numbering (trunk 1, patch ports from 1000) sits well inside.
const maxDensePort = 4095

func (pt *portTable) get(no uint32) *swPort {
	if no < uint32(len(pt.dense)) {
		return pt.dense[no]
	}
	return pt.sparse[no]
}

// with returns a copy of the table with sp added, replacing any port of
// the same number.
func (pt *portTable) with(sp *swPort) *portTable {
	next := &portTable{all: make([]*swPort, 0, len(pt.all)+1)}
	i := sort.Search(len(pt.all), func(i int) bool { return pt.all[i].no >= sp.no })
	next.all = append(append(next.all, pt.all[:i]...), sp)
	if i < len(pt.all) && pt.all[i].no == sp.no {
		i++ // replaced
	}
	next.all = append(next.all, pt.all[i:]...)
	for _, p := range next.all {
		if p.no > maxDensePort {
			if next.sparse == nil {
				next.sparse = make(map[uint32]*swPort)
			}
			next.sparse[p.no] = p
			continue
		}
		if int(p.no) >= len(next.dense) {
			next.dense = append(next.dense, make([]*swPort, int(p.no)+1-len(next.dense))...)
		}
		next.dense[p.no] = p
	}
	return next
}

// Option configures a Switch.
type Option func(*Switch)

// WithClock injects a clock for deterministic timeout tests.
func WithClock(c netem.Clock) Option { return func(s *Switch) { s.clock = c } }

// WithFlowCacheSize sets the exact capacity of each mask class of the
// flow cache: n entries, an insert into a full class evicting one of them
// (n <= 0 disables the cache).
func WithFlowCacheSize(n int) Option { return func(s *Switch) { s.cacheSize = n } }

// WithNumTables sets the pipeline depth (n <= 0 keeps the default).
func WithNumTables(n int) Option { return func(s *Switch) { s.numTables = n } }

// New creates a switch with the given datapath id.
func New(name string, dpid uint64, opts ...Option) *Switch {
	s := &Switch{
		name:      name,
		dpid:      dpid,
		clock:     netem.RealClock{},
		groups:    flowtable.NewGroupTable(),
		buffers:   newBufferPool(256),
		cacheSize: DefaultFlowCacheSize,
	}
	s.ports.Store(&portTable{})
	for _, o := range opts {
		o(s)
	}
	// Everything that reads the clock is built here, after every option
	// ran, so WithClock works wherever it sits in the option list.
	if s.numTables <= 0 {
		s.numTables = DefaultNumTables
	}
	for i := 0; i < s.numTables; i++ {
		s.tables = append(s.tables, flowtable.NewTable(uint8(i), s.clock))
	}
	s.meters = flowtable.NewMeterTable(s.clock)
	if s.cacheSize > 0 {
		s.cache = newFlowCache(s.cacheSize)
	}
	return s
}

// DatapathID returns the datapath id.
func (s *Switch) DatapathID() uint64 { return s.dpid }

// NumTables returns the pipeline depth.
func (s *Switch) NumTables() int { return len(s.tables) }

// Table returns table id (nil if out of range).
func (s *Switch) Table(id uint8) *flowtable.Table {
	if int(id) >= len(s.tables) {
		return nil
	}
	return s.tables[id]
}

// Groups exposes the group table.
func (s *Switch) Groups() *flowtable.GroupTable { return s.groups }

// PacketIns returns the count of packets sent to the controller.
func (s *Switch) PacketIns() uint64 { return s.pktIns.Load() }

// Drops returns the count of packets dropped by the pipeline (table
// miss or empty action set).
func (s *Switch) Drops() uint64 { return s.drops.Load() }

// SetTelemetry attaches (or, with nil, detaches) a flow-telemetry
// table. Frames dispatched after the store are accounted against it;
// flow records resolve lazily, so attaching mid-flight is safe.
func (s *Switch) SetTelemetry(t *telemetry.Table) { s.telemetry.Store(t) }

// Telemetry returns the attached flow-telemetry table (nil if none).
func (s *Switch) Telemetry() *telemetry.Table { return s.telemetry.Load() }

// Clock returns the clock the switch stamps credits, timeouts and
// telemetry observations with.
func (s *Switch) Clock() netem.Clock { return s.clock }

// CacheStats returns the flow cache's live counters, or nil when the
// cache is disabled.
func (s *Switch) CacheStats() *stats.CacheCounters {
	if s.cache == nil {
		return nil
	}
	return &s.cache.stats
}

// CacheLen returns the number of cached entries (0 when disabled).
func (s *Switch) CacheLen() int {
	if s.cache == nil {
		return 0
	}
	return s.cache.len()
}

// AttachPort binds an arbitrary PortBackend as datapath port no. The
// backend is egress only; ingress is the caller's affair (call Receive
// or ReceiveBatch with this port number).
func (s *Switch) AttachPort(no uint32, name string, be PortBackend) {
	s.attach(&swPort{no: no, name: name, backend: be})
}

func (s *Switch) attach(sp *swPort) {
	sp.hwAddr = portMAC(s.dpid, sp.no)
	s.portMu.Lock()
	s.ports.Store(s.ports.Load().with(sp))
	s.portMu.Unlock()
	s.notifyPortStatus(openflow.PortReasonAdd, sp)
}

// AttachNetPort binds a netem port as datapath port no, wiring both
// the per-frame and the batched receive path into the datapath.
func (s *Switch) AttachNetPort(no uint32, name string, p *netem.Port) {
	s.AttachPort(no, name, netBackend{port: p})
	p.SetReceiver(func(frame []byte) { s.Receive(no, frame) })
	p.SetBatchReceiver(func(frames [][]byte) { s.ReceiveBatch(no, frames) })
}

// ConnectPatch wires aPort on a to bPort on b with a zero-copy patch
// link (the HARMLESS-S4 internal wiring between SS_1 and SS_2). A cache
// entry follows the crossing into the peer (recorder.follow); otherwise
// the per-port batch goes to the peer whole, off the dispatch's worklist.
func ConnectPatch(a *Switch, aPort uint32, b *Switch, bPort uint32) {
	a.attach(&swPort{no: aPort, name: fmt.Sprintf("patch-%s%d", b.name, bPort), peer: b, peerPort: bPort})
	b.attach(&swPort{no: bPort, name: fmt.Sprintf("patch-%s%d", a.name, aPort), peer: a, peerPort: aPort})
}

// portMAC derives a stable per-port MAC from the dpid.
func portMAC(dpid uint64, port uint32) pkt.MAC {
	return pkt.MAC{0x02, byte(dpid >> 16), byte(dpid >> 8), byte(dpid), byte(port >> 8), byte(port)}
}

// getPort looks up a datapath port.
func (s *Switch) getPort(no uint32) *swPort { return s.ports.Load().get(no) }

// PortNumbers returns the attached port numbers in ascending order.
func (s *Switch) PortNumbers() []uint32 {
	all := s.ports.Load().all
	out := make([]uint32, 0, len(all))
	for _, p := range all {
		out = append(out, p.no)
	}
	return out
}

// PortCounters returns the datapath counters of a port (nil if absent).
func (s *Switch) PortCounters(no uint32) *stats.PortCounters {
	if p := s.getPort(no); p != nil {
		return &p.counters
	}
	return nil
}

// PortDescs renders the OpenFlow port descriptions.
func (s *Switch) PortDescs() []openflow.PortDesc {
	all := s.ports.Load().all
	out := make([]openflow.PortDesc, 0, len(all))
	for _, p := range all {
		out = append(out, openflow.PortDesc{
			PortNo: p.no, HWAddr: p.hwAddr, Name: p.name,
			State: openflow.PortStateLive, CurrSpeed: 1e6, MaxSpeed: 1e6,
		})
	}
	return out
}

// tablesChanged tells the caches a change of s's flow tables can leave
// stale classes in (flowCache.tablesChanged): its own and those of every
// switch patched to it, directly or through others, whose entries may
// follow patch ports into s.
func (s *Switch) tablesChanged() {
	var buf [4]*Switch
	seen := append(buf[:0], s)
	for i := 0; i < len(seen); i++ {
		if c := seen[i].cache; c != nil {
			c.tablesChanged.Store(true)
		}
		for _, p := range seen[i].ports.Load().all {
			if p.peer != nil && !slices.Contains(seen, p.peer) {
				seen = append(seen, p.peer)
			}
		}
	}
}

// ApplyFlowMod applies a flow-mod locally (management path and OF
// agent both funnel through here). Returned Removed entries carry
// flow-removed notifications for entries with the SendFlowRem flag.
func (s *Switch) ApplyFlowMod(fm *openflow.FlowMod) ([]flowtable.Removed, error) {
	if int(fm.TableID) >= len(s.tables) && !(fm.Command == openflow.FlowDelete && fm.TableID == openflow.TableAll) {
		return nil, fmt.Errorf("softswitch: table %d out of range", fm.TableID)
	}
	match, err := flowtable.FromOXM(&fm.Match)
	if err != nil {
		return nil, err
	}
	if err := match.ValidatePrerequisites(); err != nil {
		return nil, err
	}
	defer s.tablesChanged() // after the tables changed
	switch fm.Command {
	case openflow.FlowAdd:
		entry := &flowtable.Entry{
			Priority:     fm.Priority,
			Match:        match,
			Instructions: fm.Instructions,
			Cookie:       fm.Cookie,
			IdleTimeout:  fm.IdleTimeout,
			HardTimeout:  fm.HardTimeout,
			Flags:        fm.Flags,
		}
		return nil, s.tables[fm.TableID].Add(entry)
	case openflow.FlowModify, openflow.FlowModifyStrict:
		s.tables[fm.TableID].Modify(match, fm.Priority, fm.Command == openflow.FlowModifyStrict, fm.Instructions)
		return nil, nil
	case openflow.FlowDelete, openflow.FlowDeleteStrict:
		var removed []flowtable.Removed
		if fm.TableID == openflow.TableAll && fm.Command == openflow.FlowDelete {
			for _, t := range s.tables {
				removed = append(removed, t.Delete(match, fm.Priority, false, fm.OutPort)...)
			}
		} else {
			removed = s.tables[fm.TableID].Delete(match, fm.Priority, fm.Command == openflow.FlowDeleteStrict, fm.OutPort)
		}
		return notifying(removed), nil
	}
	return nil, fmt.Errorf("softswitch: unknown flow-mod command %d", fm.Command)
}

// notifying returns the removed entries that asked for a flow-removed
// notification.
func notifying(removed []flowtable.Removed) (notify []flowtable.Removed) {
	for _, r := range removed {
		if r.Entry.Flags&openflow.FlowFlagSendFlowRem != 0 {
			notify = append(notify, r)
		}
	}
	return notify
}

// SweepExpired expires timed-out entries across all tables and returns
// the ones requesting flow-removed notification. The OF agent calls
// this periodically; tests call it directly with a manual clock.
func (s *Switch) SweepExpired() []flowtable.Removed {
	var expired []flowtable.Removed
	for _, t := range s.tables {
		expired = append(expired, t.ExpireEntries()...)
	}
	notify := notifying(expired)
	// An expiry ends the flows the entries carried: their telemetry
	// records (and only theirs) are flushed now, so exported totals keep
	// in step with the datapath counters instead of trailing by an idle
	// timeout.
	if len(expired) > 0 {
		// The cache would find the entries that depend on the expired
		// ones stale on the next probe; sweeping here lets go of the dead
		// table entries they hold at once (a patch peer's, on its next probe).
		s.tablesChanged()
		if s.cache != nil {
			s.cache.sweep()
		}
		if tel := s.telemetry.Load(); tel != nil {
			tel.FlushWhere(func(f *pkt.FlatKey) bool {
				var k pkt.Key
				f.Unpack(&k)
				for _, r := range expired {
					if r.Entry.Match.Matches(&k) {
						return true
					}
				}
				return false
			}, s.clock.Now().UnixNano())
		}
	}
	if len(notify) > 0 {
		s.agentMu.RLock()
		a := s.agent
		s.agentMu.RUnlock()
		if a != nil {
			for _, r := range notify {
				a.sendFlowRemoved(r)
			}
		}
	}
	return notify
}

// notifyPortStatus forwards a port event to the controller, if any.
func (s *Switch) notifyPortStatus(reason uint8, p *swPort) {
	s.agentMu.RLock()
	a := s.agent
	s.agentMu.RUnlock()
	if a == nil {
		return
	}
	a.sendPortStatus(reason, openflow.PortDesc{
		PortNo: p.no, HWAddr: p.hwAddr, Name: p.name, State: openflow.PortStateLive,
	})
}

// FlowStats renders current flow statistics (the multipart FLOW body).
func (s *Switch) FlowStats(tableID uint8) []openflow.FlowStats {
	var out []openflow.FlowStats
	now := s.clock.Now()
	for _, t := range s.tables {
		if tableID != openflow.TableAll && t.ID() != tableID {
			continue
		}
		for _, e := range t.Entries() {
			out = append(out, openflow.FlowStats{
				TableID:      t.ID(),
				DurationSec:  uint32(now.Sub(e.Created()).Seconds()),
				Priority:     e.Priority,
				IdleTimeout:  e.IdleTimeout,
				HardTimeout:  e.HardTimeout,
				Cookie:       e.Cookie,
				PacketCount:  e.Packets(),
				ByteCount:    e.Bytes(),
				Match:        e.Match.ToOXM(),
				Instructions: e.Instrs(),
			})
		}
	}
	return out
}

// PortStats renders current port statistics.
func (s *Switch) PortStats() []openflow.PortStats {
	all := s.ports.Load().all
	out := make([]openflow.PortStats, 0, len(all))
	for _, p := range all {
		out = append(out, openflow.PortStats{
			PortNo:    p.no,
			RxPackets: p.counters.RxPackets.Load(),
			TxPackets: p.counters.TxPackets.Load(),
			RxBytes:   p.counters.RxBytes.Load(),
			TxBytes:   p.counters.TxBytes.Load(),
			RxDropped: p.counters.RxDropped.Load(),
			TxDropped: p.counters.TxDropped.Load(),
			RxErrors:  p.counters.RxErrors.Load(),
		})
	}
	return out
}

// TableStats renders per-table statistics.
func (s *Switch) TableStats() []openflow.TableStats {
	out := make([]openflow.TableStats, 0, len(s.tables))
	for _, t := range s.tables {
		lookups, matched := t.Stats()
		out = append(out, openflow.TableStats{
			TableID: t.ID(), ActiveCount: uint32(t.Len()),
			LookupCount: lookups, MatchedCount: matched,
		})
	}
	return out
}
