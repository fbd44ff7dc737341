// Package medium simulates the shared wireless channel: it propagates
// every transmission to every radio it can physically matter to,
// maintains per-receiver energy bookkeeping for physical carrier sense
// (CCA), decides which frames are decodable under cumulative co-channel
// interference (SINR), and models preamble locking with power capture.
//
// The medium is where the paper's three ranges become emergent behaviour
// rather than configured constants:
//
//   - TX_range: a frame decodes only if its received power clears the
//     per-rate sensitivity and SINR requirement (shorter for faster rates).
//   - PCS_range: CCA reports busy whenever total received energy exceeds
//     the energy-detect threshold, far below decode sensitivity.
//   - IF_range: a transmission too weak to decode still raises the
//     interference floor at distant receivers and can corrupt their
//     receptions.
//
// Because the ranges are emergent, the medium cannot use a configured
// "who hears whom" adjacency; instead it derives a hard relevance radius
// from the radio model itself — the distance beyond which no shadowing
// draw can lift a transmission's power to within IrrelevantMarginDB of
// any receiver's noise floor (phy.Profile.ReachRange) — and keeps the
// radios in a spatial hash grid (phy.CellIndex) with that radius as the
// cell size. Transmit then touches only the 3×3 cell neighborhood of the
// transmitter: per-transmission cost is proportional to the stations in
// earshot, not the stations in existence, which is what makes
// thousand-station fields tractable. Candidates are dispatched in
// ascending radio-id order — identical to the pre-index insertion order
// for networks built by internal/node — so fixed-seed runs are
// bit-identical with and without the index (see SetBruteForce).
//
// The per-transmission bookkeeping runs allocation-free in steady state:
// transmission descriptors are pooled and carry their receiver set
// inline, and the leading/trailing propagation edges are scheduled as
// two batch Actions per transmission (every receiver shares the same
// edge instants) rather than a closure or event pair per receiver — so
// the scheduler's pending set scales with transmissions in flight, not
// with receivers in earshot.
package medium

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"adhocsim/internal/frame"
	"adhocsim/internal/phy"
	"adhocsim/internal/sim"
)

// Handler receives PHY indications. It is implemented by the MAC.
// Callbacks are invoked synchronously from the event loop.
type Handler interface {
	// CCAChanged reports physical carrier sense edges: busy=true when the
	// medium becomes busy at this radio, false when it returns to idle.
	CCAChanged(busy bool)

	// RxEnd reports the end of a locked reception. ok=true delivers a
	// decoded frame; ok=false is a PHY reception error (the receiver
	// locked onto a preamble but could not decode the body — FCS error),
	// which must trigger EIFS at the MAC. f is non-nil in both cases.
	RxEnd(f *frame.Frame, rate phy.Rate, rssiDBm float64, ok bool)

	// TxDone reports that this radio's own transmission left the air.
	TxDone()
}

// IrrelevantMarginDB is how far under a receiver's noise floor an
// arrival must be before the medium stops simulating it at that
// receiver. At 20 dB each skipped arrival carries at most 1% of the
// noise power, so any CCA, preamble-lock, or SINR decision would need
// on the order of a hundred such arrivals overlapping at one receiver
// before the summed skipped energy rivals the noise floor itself. This
// is a deliberate approximation: it trades exactness in that
// pathological regime (dozens of concurrent transmitters all barely
// under the floor at the same radio) for O(radios-within-earshot)
// event scheduling instead of O(all radios) per transmission.
const IrrelevantMarginDB = 20

// Medium is the shared broadcast channel connecting a set of radios.
type Medium struct {
	sched *sim.Scheduler
	src   *sim.Source

	radios []*Radio
	byID   map[uint32]*Radio

	// Struct-of-arrays mirrors of the per-radio state the transmit inner
	// loop reads per candidate, indexed by radio slot: id, position, the
	// mobility epoch keying the link-gain cache, and the precomputed
	// irrelevance power cut. Packing them densely keeps the per-candidate
	// work inside a few sequential cache lines instead of chasing a map
	// probe plus a Radio pointer per candidate; the *Radio itself is
	// touched only when the candidate survives the power cut. The arrays
	// are mirrors — Radio.pos stays authoritative for the public API —
	// kept in sync by AddRadio, SetPos and Reset.
	soaID    []uint32
	soaPos   []phy.Position
	soaMove  []uint64
	soaIrrel []float64

	// idsMonotone records whether radio ids ascend in slot order — true
	// for node-built networks, which assign ids sequentially. It lets
	// sortCandidates order slots directly instead of through the id
	// array.
	idsMonotone bool

	// index is the spatial neighbor grid; nil while dirty, after
	// SetBruteForce(true), or when a degenerate radio model admits no
	// finite relevance radius (Transmit then falls back to exhaustive
	// propagation). It is rebuilt lazily on the first Transmit after a
	// radio set change and updated incrementally by Radio.SetPos.
	index      *phy.CellIndex
	indexDirty bool
	bruteForce bool

	// posEpoch stamps the station geometry. It advances on every radio
	// insertion, move, arena reset, and reference-path toggle, and
	// validates the per-transmitter candidate memos (Radio.cand): while
	// the geometry stands still, a repeat transmitter's index walk and
	// dispatch-order sort collapse to a slice reuse.
	posEpoch uint64

	// gainSeed is the sim.Source root seed the link-gain cache contents
	// were drawn under; Reset invalidates the cache only when the seed
	// it finds on the source differs.
	gainSeed uint64

	// gainCacheOff forces the direct per-arrival PHY computation, the
	// pre-cache reference path (SetGainCache). The cache itself lives on
	// the transmitters (Radio.gains), one entry per candidate, so a
	// hot-path lookup is an array index rather than a map probe.
	gainCacheOff bool

	// incrementalOff forces the receivers' interference/CCA energy sums
	// back to the per-edge recomputation loops, the reference path
	// (SetIncremental).
	incrementalOff bool

	// deg is the run's link-degradation timeline (nil when no fault
	// schedule is installed): an immutable piecewise-constant offset the
	// link-power composition adds after the shadowing terms. See
	// SetDegradation for the cache-invalidation contract.
	deg *DegTimeline

	// Pools: reused across transmissions so the steady-state event flow
	// allocates nothing.
	freeTx []*transmission

	// Parallel partition (nil/empty in sequential mode): the region
	// executor, and one shard of pools + counters per region. See
	// partition.go.
	ex     *sim.Exec
	shards []medShard

	// Counters (aggregate, for experiments and tests).
	Transmissions uint64
	Deliveries    uint64
	PHYErrors     uint64

	// lane is the sequential-mode event loop's counters and rebuild
	// scratch; in parallel mode each shard's lane takes its place and
	// FoldCounters folds the counters here at the post-join point.
	lane
}

// lane is the medium state one event-loop goroutine owns: the
// out-of-band cache-efficiency counters behind Stats, and the scratch a
// candidate-memo rebuild gathers its new list in. The medium holds one
// for sequential mode; in parallel mode every region shard holds its
// own, so none of it needs atomics. The counters are observability
// only — nothing reads them on a simulation path.
type lane struct {
	gainHits, gainMisses     uint64
	fanReplays, fanBuilds    uint64
	candReuses, candRebuilds uint64
	soaRescans               uint64

	candBuf []uint32
}

// clearCounters zeroes the lane's counters, keeping its scratch.
func (l *lane) clearCounters() {
	l.gainHits, l.gainMisses = 0, 0
	l.fanReplays, l.fanBuilds = 0, 0
	l.candReuses, l.candRebuilds = 0, 0
	l.soaRescans = 0
}

// fold adds o's counters into l and zeroes o's.
func (l *lane) fold(o *lane) {
	l.gainHits += o.gainHits
	l.gainMisses += o.gainMisses
	l.fanReplays += o.fanReplays
	l.fanBuilds += o.fanBuilds
	l.candReuses += o.candReuses
	l.candRebuilds += o.candRebuilds
	l.soaRescans += o.soaRescans
	o.clearCounters()
}

// Stats is a point-in-time copy of the medium's counters, the raw
// material of the obs layer's cache hit-rate metrics. In parallel mode
// it is exact only after FoldCounters (the node layer folds after every
// Run), and must be read from the post-join goroutine.
type Stats struct {
	Transmissions uint64
	Deliveries    uint64
	PHYErrors     uint64
	GainHits      uint64 // lookups serving the path-loss base from cache
	GainMisses    uint64 // lookups that recomputed the path-loss base
	FanReplays    uint64 // transmissions replayed from the fan-out memo
	FanBuilds     uint64 // transmissions that walked candidates and rebuilt it
	CandReuses    uint64 // candidate-memo reuses (index walk + sort skipped)
	CandRebuilds  uint64 // candidate-memo rebuilds after a geometry change
	SoARescans    uint64 // arrival-list energy-fold rebuilds (trailing edges)
}

// Stats returns the medium's observability counters.
func (m *Medium) Stats() Stats {
	return Stats{
		Transmissions: m.Transmissions,
		Deliveries:    m.Deliveries,
		PHYErrors:     m.PHYErrors,
		GainHits:      m.gainHits,
		GainMisses:    m.gainMisses,
		FanReplays:    m.fanReplays,
		FanBuilds:     m.fanBuilds,
		CandReuses:    m.candReuses,
		CandRebuilds:  m.candRebuilds,
		SoARescans:    m.soaRescans,
	}
}

// New returns an empty medium driven by sched, drawing fading values
// from src.
func New(sched *sim.Scheduler, src *sim.Source) *Medium {
	return &Medium{
		sched:       sched,
		src:         src,
		gainSeed:    src.Seed(),
		byID:        make(map[uint32]*Radio),
		indexDirty:  true,
		idsMonotone: true,
	}
}

// Now returns the current simulated time.
func (m *Medium) Now() time.Duration { return m.sched.Now() }

// SetBruteForce disables (true) or re-enables (false) the spatial
// neighbor index, forcing Transmit back to exhaustive per-radio
// propagation in radio insertion order — the pre-index reference
// behaviour: every radio is probed on every transmission, with no
// spatial query and no fan-out replay. Link-gain entries are still
// used on this path; SetGainCache(false) is the reference that checks
// them. It exists for verification: the mobility equivalence tests run
// the same seed with and without the index and require identical
// metrics. Production callers never need it.
func (m *Medium) SetBruteForce(on bool) {
	m.bruteForce = on
	m.indexDirty = true
	m.posEpoch++
}

// SetGainCache re-enables (true) or disables (false) the pairwise
// link-gain cache, forcing every propagation back to the direct
// per-arrival PHY computation — the pre-cache reference behaviour.
// Like SetBruteForce it exists for verification: the equivalence tests
// run the same seed with the cache on and off and require identical
// metrics (including sim.Scheduler.Fired). Production callers never
// need it. While the cache is off the rows are left alone; re-enabling
// empties them and keys them to the current candidate lists.
func (m *Medium) SetGainCache(on bool) {
	m.gainCacheOff = !on
	m.invalidateGains()
}

// SetIncremental re-enables (true) or disables (false) the maintained
// per-receiver energy sums, forcing the interference floor, the
// lock-time interference record and CCA back to their per-edge
// recomputation loops — the pre-incremental reference behaviour. The
// maintained sums are constructed to be bit-identical to those loops
// (see arrivalStart), and the equivalence tests run the same seed both
// ways to keep that claim honest. Production callers never need it.
func (m *Medium) SetIncremental(on bool) {
	m.incrementalOff = !on
	for _, r := range m.radios {
		r.recomputeSums()
	}
}

// invalidateGains empties every radio's link-gain row, sized to its
// candidate list, keeping the allocated rows. A no-op while the cache
// is off.
func (m *Medium) invalidateGains() {
	if m.gainCacheOff {
		return
	}
	for _, r := range m.radios {
		r.gains = resize(r.gains, len(r.cand))
		clear(r.gains)
	}
}

// Reset returns the medium to its just-built state so a replication
// sweep can re-seed a constructed network instead of rebuilding it:
// aggregate counters clear. Everything derived from the run seed or the
// geometry is invalidated exactly when its input actually changes, so a
// same-seed same-placement replication — the benchmark loop, a
// variance-reduction sweep — re-runs on every cached structure intact:
//
//   - The link-gain cache is invalidated (and the fan-out memos
//     staled via posEpoch) only if the owning sim.Source's root seed
//     changed since the entries were drawn — the node layer reseeds
//     the source before calling here, and the shadowing draws are pure
//     functions of (seed, link).
//   - The spatial index and the candidate memos are NOT touched here:
//     Radio.Reset dirties them if (and only if) its radio lands on a
//     new position, and AddRadio/SetBruteForce cover the radio-set and
//     reference-path changes.
//
// The arrival/transmission pools and the cache's allocated entries are
// deliberately retained — reusing them is the point of the arena. Radio
// placement and per-radio state are the caller's next step, via
// Radio.Reset.
func (m *Medium) Reset() {
	m.Transmissions, m.Deliveries, m.PHYErrors = 0, 0, 0
	m.lane.clearCounters()
	if seed := m.src.Seed(); seed != m.gainSeed {
		m.gainSeed = seed
		m.invalidateGains()
		m.posEpoch++
	}
}

// Link-gain cache -------------------------------------------------------

// linkGain validity bits.
const (
	gainBase   uint8 = 1 << iota // baseDBm matches the radios' mobility epochs
	gainStatic                   // staticDB drawn for this run
	gainFade                     // fadeDB matches fadeEpoch
	gainDeg                      // degDB matches both endpoints' degradation epochs
	gainMW                       // mw matches the current composed power
)

// linkGain caches the deterministic pieces of one directed link's
// received power, each stored exactly as first computed so cached and
// direct results are bit-identical:
//
//   - baseDBm: transmit power minus log-distance path loss — a pure
//     function of the two positions, invalidated by either radio's
//     mobility epoch (bumped on SetPos). Static stations, the common
//     case, never recompute the math.Log10.
//   - staticDB: the per-run static shadowing draw — a pure function of
//     (seed, link), valid for the whole run.
//   - fadeDB: the time-varying shadowing draw — a pure function of
//     (seed, link, coherence epoch), valid until the epoch rolls over.
//   - mw: the linear-milliwatt form of the composed power, memoized so
//     repeat arrivals within one epoch skip the dBm→mW exponential.
type linkGain struct {
	txMove, rxMove uint64 // mobility epochs the base term was computed at
	fadeEpoch      uint64 // coherence epoch of the cached dynamic fade
	txDegE, rxDegE uint64 // degradation epochs of the cached deg offset
	have           uint8  // gain* validity bits
	baseDBm        float64
	staticDB       float64
	fadeDB         float64
	degDB          float64
	mw             float64
}

// milliwatt returns phy.DBmToMilliwatt(dbm), memoized on the entry
// until any gain component is recomputed (which changes dbm).
func (g *linkGain) milliwatt(dbm float64) float64 {
	if g.have&gainMW == 0 {
		g.mw = phy.DBmToMilliwatt(dbm)
		g.have |= gainMW
	}
	return g.mw
}

// linkPower returns the instantaneous received power in dBm for the
// directed link from the given radio to the receiver in slot rxSlot at
// time now, served from g, the transmitter's cache entry for that
// receiver (its row position for the receiver in Radio.gains), which
// also memoizes the linear form. A nil g is the cache-disabled
// reference path, which computes directly. The receiver side is read
// entirely from the slot-indexed SoA arrays. The composition —
// path-loss base plus static shadow plus epoch fade, summed in that
// order, then the fault engine's degradation offset when a timeline is
// installed — mirrors phy.Profile.RxPowerDBm exactly, so a cache hit is
// bit-identical to the direct computation (which decomposes to the same
// ordered sum when degradation is active).
func (m *Medium) linkPower(from *Radio, g *linkGain, rxSlot int32, now time.Duration) float64 {
	rxID := uint64(m.soaID[rxSlot])
	if g == nil {
		d := phy.Dist(from.pos, m.soaPos[rxSlot])
		if dg := m.deg; dg != nil {
			// Degradation composes after the shadowing sum — the same
			// association as the cached path's base + ((static+fade)+deg).
			shadow := from.profile.Fading.ShadowDB(m.src, uint64(from.id), rxID, now)
			shadow += dg.linkOffset(from.slot, rxSlot, now)
			return from.profile.MeanRxPowerDBm(d) + shadow
		}
		return from.profile.RxPowerDBm(m.src, uint64(from.id), rxID, d, now)
	}
	// Hit/miss classification: the cache exists to skip the
	// transcendental path-loss base (PR 4), so a lookup is a miss only
	// when that base recomputes. Fade/degradation epoch refreshes are
	// cheap keyed lookups that by construction accompany *every* fan-out
	// rebuild (the memo is keyed on those same epochs), so charging them
	// as misses would pin the hit counter at zero forever.
	miss := false
	txMove, rxMove := m.soaMove[from.slot], m.soaMove[rxSlot]
	if g.have&gainBase == 0 || g.txMove != txMove || g.rxMove != rxMove {
		g.baseDBm = from.profile.MeanRxPowerDBm(phy.Dist(from.pos, m.soaPos[rxSlot]))
		g.txMove, g.rxMove = txMove, rxMove
		g.have |= gainBase
		g.have &^= gainMW
		miss = true
	}
	fad := &from.profile.Fading
	var shadow float64
	if fad.StaticSigmaDB != 0 {
		if g.have&gainStatic == 0 {
			g.staticDB = fad.StaticShadowDB(m.src, uint64(from.id), rxID)
			g.have |= gainStatic
			g.have &^= gainMW
		}
		shadow = g.staticDB
	}
	if fad.SigmaDB != 0 {
		epoch := fad.FadeEpoch(now)
		if g.have&gainFade == 0 || g.fadeEpoch != epoch {
			g.fadeDB = fad.EpochShadowDB(m.src, uint64(from.id), rxID, epoch)
			g.fadeEpoch = epoch
			g.have |= gainFade
			g.have &^= gainMW
		}
		shadow += g.fadeDB
	}
	if dg := m.deg; dg != nil {
		te, re := dg.epoch(from.slot, now), dg.epoch(rxSlot, now)
		if g.have&gainDeg == 0 || g.txDegE != te || g.rxDegE != re {
			g.degDB = dg.linkOffset(from.slot, rxSlot, now)
			g.txDegE, g.rxDegE = te, re
			g.have |= gainDeg
			g.have &^= gainMW
		}
		shadow += g.degDB
	}
	// linkPower only ever runs on the transmitter's owning goroutine (its
	// region's, in parallel mode — the same discipline that makes the row
	// mutation above safe), so the lane counters need no atomics.
	if ln := from.lane(); miss {
		ln.gainMisses++
	} else {
		ln.gainHits++
	}
	return g.baseDBm + shadow
}

// ensureIndex rebuilds the neighbor grid if the radio set changed since
// the last transmission. The cell size is the maximum relevance radius
// over all transmitter profiles against the lowest noise floor on the
// field, so any transmission's candidate set lies within the 3×3 cell
// block around the transmitter.
func (m *Medium) ensureIndex() {
	if !m.indexDirty {
		return
	}
	m.indexDirty = false
	m.index = nil
	if m.bruteForce || len(m.radios) == 0 {
		return
	}
	minFloor := math.Inf(1)
	for _, r := range m.radios {
		if f := r.profile.NoiseFloorDBm; f < minFloor {
			minFloor = f
		}
	}
	threshold := minFloor - IrrelevantMarginDB
	maxReach := 0.0
	for _, r := range m.radios {
		// A non-positive path-loss exponent means received power does not
		// fall with distance, so no relevance radius exists at all; a
		// non-finite ReachRange means the budget never runs out. Either
		// way the index cannot soundly prune anything — keep the
		// exhaustive path.
		d := r.profile.ReachRange(threshold)
		if r.profile.PathLoss.Exponent <= 0 || !(d > 0) || math.IsInf(d, 1) {
			return
		}
		r.reach = d
		if d > maxReach {
			maxReach = d
		}
	}
	ix := phy.NewCellIndex(maxReach)
	for _, r := range m.radios {
		// The index holds slots, not ids: a query result then drives the
		// SoA arrays directly, with no id→radio map probe on the hot path.
		ix.Insert(uint32(r.slot), r.pos)
	}
	m.index = ix
}

// radioState tracks what a radio's receive chain is doing.
type radioState uint8

const (
	stateListen radioState = iota
	stateTransmit
)

// Radio is one station's PHY attachment to the medium.
type Radio struct {
	id      uint32
	m       *Medium
	pos     phy.Position
	profile *phy.Profile
	handler Handler

	state radioState

	// reach is this radio's transmit relevance radius in meters, set by
	// Medium.ensureIndex: beyond it no receiver on the field can see
	// this radio's frames above the irrelevance threshold.
	reach float64

	// lin caches the profile's dB-scale thresholds in linear milliwatts,
	// snapshotted at attach time (profiles are configured before attach)
	// so the hot CCA/verdict paths never re-run the dBm→mW exponential
	// on constants. irrelevantDBm is the precomputed per-receiver power
	// cut, profile.NoiseFloorDBm − IrrelevantMarginDB.
	lin           phy.Linear
	irrelevantDBm float64

	// slot is this radio's dense index in Medium.radios and in the
	// medium's slot-indexed SoA arrays (positions, mobility epochs,
	// irrelevance cuts).
	slot int32

	// Parallel partition bindings (zero in sequential mode): the radio's
	// region, that region's scheduler — where every event this radio
	// originates must land — and its shard. Set by Medium.SetPartition;
	// a non-nil sched routes Transmit to the partitioned path.
	reg   int32
	sched *sim.Scheduler
	shard *medShard

	// txEnd is the pooled end-of-own-transmission action, scheduled once
	// per Transmit without allocating.
	txEnd txEndAction

	// arrivals lists every in-flight transmission overlapping this radio
	// with its received power (fixed at arrival time, one fading epoch
	// per frame), in arrival order. A slice rather than a map: the
	// handful of entries makes linear scans faster than hashing, and —
	// decisive for the determinism contract — the interference/CCA power
	// sums accumulate in a fixed order, where Go's randomized map
	// iteration would let three-summand float sums differ between
	// identically-seeded runs. The linear power form is cached at the
	// leading edge so the hot sums never re-run the dBm→mW exponential.
	arrivals []arrivalEntry

	// cand memoizes this radio's sorted candidate slot list from the
	// spatial index — the receivers within its relevance radius, in
	// dispatch order; every slot in slot order when there is no index.
	// Valid while candEpoch matches the medium's posEpoch; any geometry
	// change invalidates every memo at once. In partitioned mode the
	// memo is touched only by the region goroutine servicing this
	// radio's transmissions, so it stays race-free.
	cand      []uint32
	candEpoch uint64

	// gains is this radio's row of the link-gain cache, parallel to
	// cand: gains[k] caches the link to the receiver in slot cand[k].
	// A row costs one entry per candidate, not per radio on the field.
	// A rebuild that changes the candidate list empties the row; one
	// that finds the same list keeps it. Same ownership as cand.
	gains []linkGain

	// fan memoizes this radio's full propagation fan-out: the candidates
	// that survive the irrelevance cut, with both power forms and the
	// receiver regions — everything propagate would append for a
	// transmission starting now. Each component is a pure function of the
	// geometry (posEpoch) and the transmitter profile's fade epoch (all
	// of one transmitter's links fade on its own profile's clock), so
	// while both stamps stand still, replaying the memo is bit-identical
	// to re-running the per-candidate power probes. Disabled alongside
	// the gain cache and on the exhaustive path, so both reference paths
	// stay genuinely direct computations; race-free in partitioned mode
	// for the same reason the candidate memo is.
	fan      []arrivalTarget
	fanEpoch uint64 // posEpoch the fan was computed at (0 = never)
	fanFade  uint64 // transmitter-profile fade epoch of the memo
	fanDeg   uint64 // degradation global epoch of the memo (0 when no timeline)

	// down marks a crashed station's radio: energy bookkeeping continues
	// (the radio stays in the spatial index and its arrivals stay summed,
	// so CCA state is consistent the instant it restarts) but the receive
	// chain never locks — every arrival is missed — and the MAC layer
	// guarantees no transmission originates here. Set by PowerDown,
	// cleared by PowerUp and Reset.
	down bool

	// locked is the transmission the receive chain is synchronized to.
	locked       *transmission
	lockedPower  float64 // dBm
	maxInterfMW  float64 // worst cumulative interference during the lock
	ccaBusy      bool
	txEndPending sim.Event

	// Maintained energy folds over the arrivals list, updated at arrival
	// edges instead of recomputed by the per-edge loops (the reference
	// path SetIncremental(false) preserves): ccaMW is the total in-air
	// energy CCA compares against its threshold; floorMW is the same
	// fold seeded with the noise floor, serving the preamble
	// interference-floor test; interfMW is the fold excluding the locked
	// transmission, valid only while locked. Each is kept bit-identical
	// to its reference loop — appends extend a left-to-right float fold
	// exactly, and removals trigger recomputeSums because a mid-list
	// removal changes the fold's association.
	ccaMW    float64
	floorMW  float64
	interfMW float64

	// Counters.
	FramesSent      uint64
	FramesDecoded   uint64
	FramesErrored   uint64 // locked but failed decode (→ EIFS at MAC)
	FramesMissed    uint64 // arrived while busy or below preamble detect
	CaptureSwitches uint64
}

// transmission is one frame in flight. Descriptors are pooled and carry
// their receiver set inline: every receiver shares the same leading and
// trailing edge instants (propagation delay is a constant bound), so
// the medium schedules two batch events per transmission — lead and
// trail — instead of two events per receiver. Receivers are dispatched
// in target order, which is exactly the order the per-receiver events
// used to fire in (consecutive sequence numbers at one instant), so
// the batch is event-order-identical to the pre-batch kernel while
// keeping the pending-event heap proportional to transmissions in
// flight, not receivers in earshot.
type transmission struct {
	from    *Radio
	f       *frame.Frame
	rate    phy.Rate
	end     time.Duration
	targets []arrivalTarget
	lead    txLeadAction
	trail   txTrailAction

	// lo:hi is the slice of targets the local lead/trail pair serves —
	// the whole set in sequential mode, the transmitter's own region's
	// segment in partitioned mode (remote segments ride tx.segs).
	// remaining counts the regions still holding the descriptor; the
	// last finishOn returns it to the origin shard's pool (accessed
	// atomically only in partitioned mode — see partition.go).
	lo, hi    int32
	remaining int32

	// Partitioned-mode state: the remote-region segments (embedded so a
	// recirculating descriptor reuses their storage) and the shard whose
	// pool the descriptor recirculates through — the transmitter's, so
	// the targets capacity warms up where the fan-out happens.
	segs   []txSegment
	origin *medShard
}

// arrivalTarget is one receiver of an in-flight transmission with its
// received power in both scales, and the receiver's region (zero in
// sequential mode) so the partitioned path can split the set.
type arrivalTarget struct {
	rx  *Radio
	reg int32
	dbm float64
	mw  float64
}

// txLeadAction fires the leading edge of a transmission at every
// receiver in earshot, in target (ascending radio id) order. It is
// embedded in the pooled transmission and scheduled by pointer, so the
// interface conversion never allocates.
type txLeadAction struct{ tx *transmission }

// Act implements sim.Action.
func (a *txLeadAction) Act() {
	tx := a.tx
	for i := tx.lo; i < tx.hi; i++ {
		t := &tx.targets[i]
		t.rx.arrivalStart(tx, t.dbm, t.mw)
	}
}

// txTrailAction fires the trailing edge at every local receiver, then
// drops the local region's hold on the descriptor (sequential mode
// holds exactly one, so this is the release).
type txTrailAction struct{ tx *transmission }

// Act implements sim.Action.
func (a *txTrailAction) Act() {
	tx := a.tx
	for i := tx.lo; i < tx.hi; i++ {
		tx.targets[i].rx.arrivalEnd(tx)
	}
	tx.finishOn(tx.from.shard)
}

// arrivalEntry is one in-flight transmission's received power at one
// radio, in both scales: dBm for lock/sensitivity decisions, linear
// milliwatts for energy summation.
type arrivalEntry struct {
	tx  *transmission
	dbm float64
	mw  float64
}

// txEndAction returns a transmitting radio to listen state when its own
// frame leaves the air.
type txEndAction struct{ r *Radio }

// Act implements sim.Action.
func (t *txEndAction) Act() {
	r := t.r
	r.state = stateListen
	r.txEndPending = sim.Event{}
	r.updateCCA()
	r.handler.TxDone()
}

func (m *Medium) newTransmission(from *Radio, f *frame.Frame, rate phy.Rate, end time.Duration) *transmission {
	var tx *transmission
	if n := len(m.freeTx); n > 0 {
		tx = m.freeTx[n-1]
		m.freeTx = m.freeTx[:n-1]
	} else {
		tx = new(transmission)
	}
	*tx = transmission{from: from, f: f, rate: rate, end: end,
		targets: tx.targets[:0], segs: tx.segs[:0]}
	tx.lead.tx = tx
	tx.trail.tx = tx
	return tx
}

func (m *Medium) releaseTransmission(tx *transmission) {
	*tx = transmission{targets: tx.targets[:0], segs: tx.segs[:0]}
	m.freeTx = append(m.freeTx, tx)
}

// AddRadio attaches a radio at pos with the given profile and handler.
// The id must be unique; it keys the fading process and the spatial
// index.
func (m *Medium) AddRadio(id uint32, pos phy.Position, profile *phy.Profile, h Handler) *Radio {
	if _, dup := m.byID[id]; dup {
		panic(fmt.Sprintf("medium: duplicate radio id %d", id))
	}
	if m.shards != nil {
		panic("medium: AddRadio after SetPartition")
	}
	r := &Radio{
		id:            id,
		m:             m,
		pos:           pos,
		profile:       profile,
		handler:       h,
		lin:           profile.Linearize(),
		irrelevantDBm: profile.NoiseFloorDBm - IrrelevantMarginDB,
		slot:          int32(len(m.radios)),
	}
	r.floorMW = r.lin.NoiseFloorMW
	r.txEnd.r = r
	if n := len(m.radios); n > 0 && id <= m.radios[n-1].id {
		m.idsMonotone = false
	}
	m.byID[id] = r
	m.radios = append(m.radios, r)
	m.soaID = append(m.soaID, id)
	m.soaPos = append(m.soaPos, pos)
	m.soaMove = append(m.soaMove, 0)
	m.soaIrrel = append(m.soaIrrel, r.irrelevantDBm)
	m.indexDirty = true
	m.posEpoch++
	return r
}

// ID returns the radio identifier.
func (r *Radio) ID() uint32 { return r.id }

// lane returns the counters and scratch of the goroutine that runs this
// radio's events: its region shard's in partitioned mode, the medium's
// otherwise.
func (r *Radio) lane() *lane {
	if sh := r.shard; sh != nil {
		return &sh.lane
	}
	return &r.m.lane
}

// Pos returns the radio's current position.
func (r *Radio) Pos() phy.Position { return r.pos }

// SetPos moves the radio (mobility support). Takes effect for
// transmissions that begin after the move. The spatial index follows
// incrementally: a move within the radio's current grid cell is O(1)
// bookkeeping, and only a cell-boundary crossing relocates it.
func (r *Radio) SetPos(p phy.Position) {
	m := r.m
	r.pos = p
	m.soaPos[r.slot] = p
	m.soaMove[r.slot]++
	m.posEpoch++
	if m.index != nil && !m.indexDirty {
		m.index.Move(uint32(r.slot), p)
	}
}

// Reset clears the radio's per-run receive state and counters and
// re-places it at pos, keeping the attachment (profile, handler,
// precomputed linear tables) intact. It is the per-radio half of the
// arena-reuse path: call Medium.Reset first (which invalidates the
// link-gain cache if the seed changed), then Reset every radio with its
// new-run position. The move epoch, geometry epoch, and spatial-index
// rebuild flag advance only if the radio actually lands somewhere new,
// so a same-placement replication keeps its cached path-loss terms, its
// candidate and fan-out memos, and the built index.
func (r *Radio) Reset(pos phy.Position) {
	m := r.m
	if pos != r.pos {
		m.soaMove[r.slot]++
		m.posEpoch++
		m.indexDirty = true
	}
	r.pos = pos
	m.soaPos[r.slot] = pos
	r.state = stateListen
	clear(r.arrivals)
	r.arrivals = r.arrivals[:0]
	r.locked = nil
	r.lockedPower = 0
	r.maxInterfMW = 0
	r.ccaMW, r.floorMW, r.interfMW = 0, r.lin.NoiseFloorMW, 0
	r.ccaBusy = false
	r.down = false
	r.txEndPending = sim.Event{}
	r.FramesSent, r.FramesDecoded, r.FramesErrored = 0, 0, 0
	r.FramesMissed, r.CaptureSwitches = 0, 0
}

// Profile returns the radio's PHY profile.
func (r *Radio) Profile() *phy.Profile { return r.profile }

// CCABusy reports the current physical-carrier-sense state.
func (r *Radio) CCABusy() bool { return r.ccaBusy }

// Transmitting reports whether the radio is currently transmitting.
func (r *Radio) Transmitting() bool { return r.state == stateTransmit }

// Down reports whether the radio is powered down (crashed station).
func (r *Radio) Down() bool { return r.down }

// PowerDown detaches the radio's receive chain: any lock is abandoned
// and no arrival can lock until PowerUp. The radio deliberately stays
// in the spatial index and its in-air energy bookkeeping keeps running
// — a crash must not mutate the field geometry mid-run (the parallel
// kernel's partition and every candidate/fan memo depend on it), and
// carrying the sums through the downtime makes CCA exact the instant
// the station restarts. A transmission already in the air when the
// crash fires plays out naturally (its trailing edges are already
// scheduled at every receiver); the MAC layer discards its TxDone.
func (r *Radio) PowerDown() {
	r.down = true
	r.locked = nil
	r.maxInterfMW = 0
	r.updateCCA()
}

// PowerUp re-enables the receive chain after a PowerDown. CCA state is
// already exact — the energy folds ran through the downtime — so the
// restarted MAC can read CCABusy immediately.
func (r *Radio) PowerUp() {
	r.down = false
	r.updateCCA()
}

// Transmit puts f on the air at the given rate and returns its airtime.
// The radio's receive chain is disabled for the duration (half-duplex);
// any reception in progress is abandoned. TxDone fires when the frame
// leaves the air.
func (r *Radio) Transmit(f *frame.Frame, rate phy.Rate) time.Duration {
	if r.state == stateTransmit {
		panic("medium: Transmit while already transmitting")
	}
	if !rate.Valid() {
		panic(fmt.Sprintf("medium: invalid rate %d", rate))
	}
	m := r.m
	if r.sched != nil {
		return m.partTransmit(r, f, rate)
	}
	now := m.sched.Now()
	air := f.AirTime(rate)
	m.Transmissions++
	r.FramesSent++

	// Half-duplex: abandon any lock; the abandoned frame still occupies
	// the arrivals set (it remains energy in the air).
	r.locked = nil
	r.maxInterfMW = 0
	r.state = stateTransmit
	r.updateCCA()

	tx := m.newTransmission(r, f, rate, now+air)
	m.ensureIndex()
	m.fanOut(r, tx, now)
	r.txEndPending = m.sched.AtAction(now+air, &r.txEnd)
	if len(tx.targets) == 0 {
		// Nobody in earshot: the descriptor never entered any receiver's
		// bookkeeping.
		m.releaseTransmission(tx)
	} else {
		tx.lo, tx.hi = 0, int32(len(tx.targets))
		tx.remaining = 1
		m.sched.AtAction(now+phy.PropDelay, &tx.lead)
		m.sched.AtAction(now+air+phy.PropDelay, &tx.trail)
	}
	return air
}

// fanOut appends r's receiver set for a transmission starting at now to
// tx.targets, in dispatch order. It is the one propagation path of both
// kernels: the sequential Transmit and the partitioned partTransmit
// differ only in what they do with the targets afterwards.
//
// The fan-out memo (Radio.fan) replays the whole set when the geometry,
// r's fade epoch and the degradation epoch all stand still since it was
// recorded; each target is a pure function of those, so the replay is
// bit-identical to re-probing every candidate. Otherwise every candidate
// is probed through its link-gain entry and the memo is re-recorded.
// Neither reference path (gain cache off, no spatial index) uses the
// memo.
func (m *Medium) fanOut(r *Radio, tx *transmission, now time.Duration) {
	ln := r.lane()
	slots := m.candidates(r, ln)
	memo := !m.gainCacheOff && m.index != nil
	var fade uint64
	if pf := &r.profile.Fading; pf.SigmaDB != 0 {
		fade = pf.FadeEpoch(now)
	}
	var degE uint64
	if m.deg != nil {
		degE = m.deg.globalEpoch(now)
	}
	if memo && r.fanEpoch == m.posEpoch && r.fanFade == fade && r.fanDeg == degE {
		tx.targets = append(tx.targets, r.fan...)
		ln.fanReplays++
		return
	}
	if cap(tx.targets) < len(slots) {
		tx.targets = make([]arrivalTarget, 0, len(slots))
	}
	for k, slot := range slots {
		var g *linkGain
		if !m.gainCacheOff {
			g = &r.gains[k]
		}
		m.propagate(tx, r, g, int32(slot), now)
	}
	if memo {
		r.fan = append(r.fan[:0], tx.targets...)
		r.fanEpoch, r.fanFade, r.fanDeg = m.posEpoch, fade, degE
	}
	ln.fanBuilds++
}

// candidates returns r's candidate slot list, rebuilding the memo when
// the geometry changed since it was taken. With the spatial index, the
// candidate cells are visited in deterministic grid order and the
// gathered slots are then put in ascending-id dispatch order, which
// coincides with the exhaustive path's insertion order for node-built
// networks (ids are assigned sequentially), keeping fixed-seed runs
// bit-identical across the index. Without it, every slot is a candidate
// in slot order. Both steps are pure functions of the geometry, so
// while posEpoch stands still the memo IS the fresh query.
func (m *Medium) candidates(r *Radio, ln *lane) []uint32 {
	if r.candEpoch == m.posEpoch {
		ln.candReuses++
		return r.cand
	}
	next := ln.candBuf[:0]
	if m.index == nil {
		for slot := range m.radios {
			next = append(next, uint32(slot))
		}
	} else {
		next = m.index.AppendWithin(next, r.pos, r.reach)
		m.sortCandidates(next)
	}
	ln.candBuf = next
	if !slices.Equal(next, r.cand) {
		r.cand, ln.candBuf = next, r.cand
		if !m.gainCacheOff {
			r.gains = resize(r.gains, len(next))
			clear(r.gains)
		}
	}
	r.candEpoch = m.posEpoch
	ln.candRebuilds++
	return r.cand
}

// resize returns s with length n, reallocating to exactly n only when
// its capacity falls short. The contents are not preserved.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// sortCandidates puts a slot list gathered from the spatial index into
// dispatch order: ascending radio id, the contract every reference path
// shares. Node-built networks assign ids in slot order, so the common
// case is a plain slot sort; hand-assembled media with out-of-order ids
// sort through the id array instead.
func (m *Medium) sortCandidates(slots []uint32) {
	if m.idsMonotone {
		slices.Sort(slots)
		return
	}
	ids := m.soaID
	slices.SortFunc(slots, func(a, b uint32) int {
		return cmp.Compare(ids[a], ids[b])
	})
}

// propagate adds the radio in slot rxSlot to tx's receiver set, unless
// the frame arrives so far under that receiver's noise floor that it
// cannot shift any CCA, lock, or SINR decision there. g is the
// transmitter's link-gain entry for the receiver (nil on the
// cache-disabled reference path). The candidate test runs entirely on
// the slot-indexed SoA arrays and the gain entry — for static
// link/epoch combinations already seen this run the transcendental PHY
// arithmetic is skipped entirely, and the *Radio is only dereferenced
// for candidates that survive the power cut. The edges themselves are
// scheduled once per transmission by the caller, not once per receiver.
func (m *Medium) propagate(tx *transmission, from *Radio, g *linkGain, rxSlot int32, now time.Duration) {
	if rxSlot == from.slot {
		return
	}
	p := m.linkPower(from, g, rxSlot, now)
	if p < m.soaIrrel[rxSlot] {
		return
	}
	var mw float64
	if g != nil {
		mw = g.milliwatt(p)
	} else {
		mw = phy.DBmToMilliwatt(p)
	}
	rx := m.radios[rxSlot]
	tx.targets = append(tx.targets, arrivalTarget{rx: rx, reg: rx.reg, dbm: p, mw: mw})
}

// DebugArrival, when set, observes every arrival edge (test hook).
var DebugArrival func(rx uint32, from uint32, powerDBm float64, state string)

// arrivalStart handles the leading edge of a transmission reaching this
// radio. powerMW is the caller-supplied linear form of powerDBm.
//
// Incremental mode maintains the three energy folds at this edge
// instead of looping over the arrivals per decision, and stays
// bit-identical to the reference loops by a fold-prefix argument:
// appending to a left-to-right float fold extends it exactly (the
// prefix's association is unchanged), and the two "all but the new
// arrival" quantities the decisions need — the preamble's interference
// floor and a fresh lock's interference record — are precisely the
// folds' values before this append.
func (r *Radio) arrivalStart(tx *transmission, powerDBm, powerMW float64) {
	inc := !r.m.incrementalOff
	preCCA, preFloor := r.ccaMW, r.floorMW
	r.arrivals = append(r.arrivals, arrivalEntry{tx: tx, dbm: powerDBm, mw: powerMW})
	if inc {
		r.ccaMW += powerMW
		r.floorMW += powerMW
		if r.locked != nil {
			// A lock switch below re-seeds interfMW from preCCA.
			r.interfMW += powerMW
		}
	}
	prof := r.profile
	if DebugArrival != nil {
		st := "listen-unlocked"
		if r.state == stateTransmit {
			st = "transmitting"
		} else if r.locked != nil {
			st = "locked"
		}
		DebugArrival(r.id, tx.from.id, powerDBm, st)
	}

	switch {
	case r.down:
		// Crashed station: the receive chain is off. The arrival still
		// entered the energy bookkeeping above, so CCA state is exact at
		// restart, but nothing can lock.
		r.FramesMissed++
	case r.state == stateTransmit:
		// Half-duplex: cannot hear anything while transmitting.
		r.FramesMissed++
	case powerDBm < prof.PLCPDetectDBm:
		// Too weak to synchronize: pure energy/interference.
		r.FramesMissed++
	case r.locked == nil:
		// Preamble must clear the interference floor to synchronize.
		// preFloor is noise plus every arrival before this one, the exact
		// value the reference loop recomputes with tx excluded.
		var floor float64
		if inc {
			floor = phy.MilliwattToDBm(preFloor)
		} else {
			floor = r.interferenceFloorDBm(tx)
		}
		if powerDBm >= floor+prof.SINRRequiredDB[phy.Rate1.Index()] {
			r.lock(tx, powerDBm, preCCA)
		} else {
			r.FramesMissed++
		}
	case powerDBm >= r.lockedPower+prof.CaptureMarginDB:
		// Message-in-message capture: a much stronger newcomer steals
		// the receiver; the previous frame is lost.
		r.CaptureSwitches++
		r.FramesMissed++ // the abandoned frame
		r.lock(tx, powerDBm, preCCA)
	default:
		r.FramesMissed++
	}

	if r.locked != nil && r.locked != tx {
		// Newcomer interferes with the locked frame.
		if inc {
			if r.interfMW > r.maxInterfMW {
				r.maxInterfMW = r.interfMW
			}
		} else {
			r.noteInterference()
		}
	}
	r.updateCCA()
}

// lock synchronizes the receive chain to tx, which is always the
// arrival just appended. interfMW is the pre-append total-energy fold:
// with tx last in the list, that is exactly the reference's "every
// arrival except the locked one" fold — including a previously locked
// frame a capture just abandoned, at its original fold position.
func (r *Radio) lock(tx *transmission, powerDBm, interfMW float64) {
	r.locked = tx
	r.lockedPower = powerDBm
	r.maxInterfMW = 0
	if r.m.incrementalOff {
		r.noteInterference()
		return
	}
	r.interfMW = interfMW
	if interfMW > 0 {
		r.maxInterfMW = interfMW
	}
}

// noteInterference records the current cumulative interference against
// the locked frame. The decode verdict uses the worst value seen during
// the whole reception.
func (r *Radio) noteInterference() {
	var mw float64
	for _, a := range r.arrivals {
		if a.tx != r.locked {
			mw += a.mw
		}
	}
	if mw > r.maxInterfMW {
		r.maxInterfMW = mw
	}
}

// interferenceFloorDBm returns noise + all arrivals except tx, in dBm.
// The noise floor comes from the attach-time linear table rather than a
// fresh dBm→mW conversion per call. Reference path only: incremental
// mode reads the maintained floorMW fold instead (see arrivalStart).
func (r *Radio) interferenceFloorDBm(except *transmission) float64 {
	mw := r.lin.NoiseFloorMW
	for _, a := range r.arrivals {
		if a.tx != except {
			mw += a.mw
		}
	}
	return phy.MilliwattToDBm(mw)
}

// recomputeSums rebuilds the three maintained energy folds from the
// arrivals list in arrival order — the same left-to-right folds the
// reference loops perform. Removing an arrival from the middle of the
// list changes the folds' association, so the running values cannot be
// maintained by subtraction without parting from the reference one ulp
// at a time; one rebuild per trailing edge keeps them exact (and, with
// the list empty, pins them back to exactly zero — no drift ever
// accumulates).
func (r *Radio) recomputeSums() {
	r.lane().soaRescans++
	cca, interf := 0.0, 0.0
	floor := r.lin.NoiseFloorMW
	for _, a := range r.arrivals {
		cca += a.mw
		floor += a.mw
		if a.tx != r.locked {
			interf += a.mw
		}
	}
	r.ccaMW, r.floorMW, r.interfMW = cca, floor, interf
}

// arrivalEnd handles the trailing edge of a transmission at this radio.
func (r *Radio) arrivalEnd(tx *transmission) {
	for i := range r.arrivals {
		if r.arrivals[i].tx == tx {
			// Remove preserving arrival order, so later sums stay a pure
			// function of the remaining arrival sequence.
			last := len(r.arrivals) - 1
			copy(r.arrivals[i:], r.arrivals[i+1:])
			r.arrivals[last] = arrivalEntry{}
			r.arrivals = r.arrivals[:last]
			if !r.m.incrementalOff {
				r.recomputeSums()
			}
			break
		}
	}
	if r.locked == tx {
		r.locked = nil
		ok := r.verdict(tx)
		if ok {
			r.FramesDecoded++
			if r.shard != nil {
				r.shard.deliveries++
			} else {
				r.m.Deliveries++
			}
		} else {
			r.FramesErrored++
			if r.shard != nil {
				r.shard.phyErrors++
			} else {
				r.m.PHYErrors++
			}
		}
		power := r.lockedPower
		r.maxInterfMW = 0
		r.updateCCA()
		r.handler.RxEnd(tx.f, tx.rate, power, ok)
		return
	}
	r.updateCCA()
}

// verdict decides whether the locked frame decoded successfully: power
// above the rate's sensitivity, and SINR above the rate's requirement
// against the worst noise+interference seen during the reception.
func (r *Radio) verdict(tx *transmission) bool {
	prof := r.profile
	idx := tx.rate.Index()
	if r.lockedPower < prof.SensitivityDBm[idx] {
		return false
	}
	floorMW := r.lin.NoiseFloorMW + r.maxInterfMW
	sinr := r.lockedPower - phy.MilliwattToDBm(floorMW)
	return sinr >= prof.SINRRequiredDB[idx]
}

// updateCCA recomputes physical carrier sense and reports edges.
// The medium is busy at this radio when it is transmitting, when its
// receive chain is locked, or when total in-air energy exceeds the
// energy-detect threshold.
func (r *Radio) updateCCA() {
	busy := r.state == stateTransmit || r.locked != nil
	if !busy && len(r.arrivals) > 0 {
		if r.m.incrementalOff {
			var mw float64
			for _, a := range r.arrivals {
				mw += a.mw
			}
			busy = mw >= r.lin.CCAThresholdMW
		} else {
			busy = r.ccaMW >= r.lin.CCAThresholdMW
		}
	}
	if busy != r.ccaBusy {
		r.ccaBusy = busy
		r.handler.CCAChanged(busy)
	}
}
