package sim

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"time"
)

// This file is the scheduler's calendar-queue backend: a circular
// bucketed time wheel (Brown's calendar queue, CACM 1988, with the
// ladder-queue refinement of a separate sorted far-future band) that
// replaces the 4-ary heap's O(log n) sift with O(1) bucket filing for
// the near-future events that dominate a saturated MAC simulation. The
// heap remains the reference backend; both share the slot arena, Event
// handles, and the (at, sub, seq) total order, so fire order is
// provably identical — the cross-backend property and fuzz tests in
// calendar_test.go insist.
//
// Layout. The wheel is a ring of len(buckets) spans of width each; an
// event within one full lap of the clock files into bucket
// (at/width) mod len(buckets), unsorted within the bucket. Events a
// lap or more ahead go to the overflow band, a single slice kept
// sorted by the scheduler's total order. The one-lap admission rule
// makes each bucket hold events of a single lap, so walking the ring
// forward from the clock's bucket visits events in non-decreasing
// time order: the earliest pending event is the least entry (by less)
// of the first non-empty bucket, and the band never has to be
// consulted while the ring holds anything. The band's due prefix
// migrates into the ring lazily, whenever findMin notices the band
// head has come within a lap.
//
// The forward scan is sound for events scheduled mid-Step: a new event
// is never earlier than now, hence never files into a ring position
// the scan for the current minimum has already passed.
//
// Adaptation. The width tracks an exponentially-weighted average of
// inter-dequeue gaps (the classic calendar-queue sampling problem,
// solved here by measuring the realized event rate instead of sampling
// the queue): the target is width = 4 * avgGap, so consecutive events
// land a fraction of a bucket apart and a bucket holds a handful of
// events. The bucket count doubles when the pending count outgrows two
// events per bucket and halves when it falls under a quarter; the
// width is re-applied on those resizes and — because a long-running
// simulation can drift far from the width its first resize froze —
// re-checked every calAdaptPops dequeues, re-filing the wheel when it
// is more than 2x off target. All triggers read simulated-time state
// only, so the structure (not just the fire order) is deterministic
// for a given event sequence.

const (
	// calMinBuckets is the smallest ring; shrinks stop here.
	calMinBuckets = 64
	// calDefaultWidth seeds the ring before any dequeue-gap statistics
	// exist; the first resize or staleness check replaces it.
	calDefaultWidth = time.Millisecond
	// calMaxWidth caps adaptation so lap arithmetic stays far from
	// overflowing time.Duration even on huge rings.
	calMaxWidth = time.Hour
	// calAdaptPops is how many dequeues pass between width staleness
	// checks in steady state: rare enough to amortize the O(n) re-file
	// a correction costs, frequent enough that a workload shift is
	// caught within a fraction of a run. The first checks after
	// construction or Reset come sooner (calFirstAdapt, doubling up to
	// the steady cadence) so a run does not spend its opening stretch
	// on the seed width.
	calAdaptPops  = 1024
	calFirstAdapt = 32

	// calOverflow in slot.bucket marks an event parked in the overflow
	// band; its heapIdx is the band position. calNowhere marks a slot
	// not filed anywhere (heap backend, or released).
	calOverflow = -2
	calNowhere  = -1
)

// calendar is the bucketed-wheel state hanging off a Scheduler when the
// calendar backend is selected. Entries are the same heapEntry values
// the heap backend uses; slot.bucket/slot.heapIdx locate an entry for
// Cancel exactly as heapIdx alone does for the heap.
type calendar struct {
	// buckets and occ are the ACTIVE ring: prefixes of bucketStore and
	// occStore, which hold the high-water storage so a ring that
	// oscillates between sizes (bursty workloads cross the grow/shrink
	// thresholds repeatedly) re-files into warmed slices instead of
	// reallocating every bucket each time. heapEntry is scalar-only, so
	// the retained tails pin no heap objects.
	buckets     [][]heapEntry
	occ         []uint64 // occupancy bitmap: bit b set iff buckets[b] is non-empty
	bucketStore [][]heapEntry
	occStore    []uint64
	overflow    []heapEntry   // sorted ascending by less
	scratch     []heapEntry   // resize staging; retained so re-files stop allocating
	width       time.Duration // bucket span; changes only on a full re-file
	lap         time.Duration // width * len(buckets), saturated
	inRing      int
	avgGap      time.Duration // windowed mean inter-dequeue gap
	anchorAt    time.Duration // window start: the dequeue timestamp pops ago
	popped      bool          // any dequeue since Reset (anchors the window)
	pops        int           // dequeues since anchorAt
	adaptAt     int           // window length that triggers the next check
}

func newCalendar() *calendar {
	c := &calendar{
		bucketStore: make([][]heapEntry, calMinBuckets),
		occStore:    make([]uint64, calMinBuckets/64),
		width:       calDefaultWidth,
		adaptAt:     calFirstAdapt,
	}
	c.buckets = c.bucketStore
	c.occ = c.occStore
	c.setLap()
	return c
}

// The ring size is always a power of two no smaller than calMinBuckets
// (resize doubles or halves), so the occupancy bitmap is always a whole
// number of 64-bit words and bucket→(word, bit) is a shift and a mask.

func (c *calendar) occSet(b int)   { c.occ[b>>6] |= 1 << (uint(b) & 63) }
func (c *calendar) occClear(b int) { c.occ[b>>6] &^= 1 << (uint(b) & 63) }

// nextOccupied returns the first non-empty bucket at or after b, wrapping
// past the ring's end — the bitmap form of findMin's forward scan. The
// caller guarantees the ring holds at least one entry. Bursty schedules
// leave long runs of empty buckets between occupied ones (an idle gap of
// g buckets used to cost a g-step walk per dequeue); the bitmap crosses
// 64 buckets per word probe.
func (c *calendar) nextOccupied(b int) int {
	w := b >> 6
	if word := c.occ[w] >> (uint(b) & 63); word != 0 {
		return b + bits.TrailingZeros64(word)
	}
	nw := len(c.occ)
	for i := 1; i <= nw; i++ {
		idx := w + i
		if idx >= nw {
			idx -= nw
		}
		if word := c.occ[idx]; word != 0 {
			return idx<<6 + bits.TrailingZeros64(word)
		}
	}
	panic("sim: calendar ring accounting corrupt")
}

// setLap recomputes the ring's one-lap span, saturating instead of
// overflowing the Duration range.
func (c *calendar) setLap() {
	n := time.Duration(len(c.buckets))
	if c.width > math.MaxInt64/n {
		c.lap = math.MaxInt64
		return
	}
	c.lap = c.width * n
}

// horizon returns the exclusive admission bound for the ring: events
// before it are within one lap of now and file into buckets, events at
// or beyond it park in the overflow band.
func (c *calendar) horizon(now time.Duration) time.Duration {
	base := (now / c.width) * c.width
	if base > math.MaxInt64-c.lap {
		return math.MaxInt64
	}
	return base + c.lap
}

// count returns the pending-event total across ring and band.
func (c *calendar) count() int { return c.inRing + len(c.overflow) }

// insert files a new entry, growing the ring first when the pending
// count has outgrown it.
func (c *calendar) insert(s *Scheduler, e heapEntry) {
	if c.count() >= 2*len(c.buckets) {
		c.resize(s, 2*len(c.buckets))
	}
	c.place(s, e, c.horizon(s.now))
}

// place files an entry into its ring bucket, or into the sorted
// overflow band when it lies at or beyond the admission horizon.
func (c *calendar) place(s *Scheduler, e heapEntry, horizon time.Duration) {
	if e.at < horizon {
		b := int((e.at / c.width) % time.Duration(len(c.buckets)))
		sl := &s.slots[e.idx]
		sl.bucket = int32(b)
		sl.heapIdx = int32(len(c.buckets[b]))
		if len(c.buckets[b]) == 0 {
			c.occSet(b)
		}
		c.buckets[b] = append(c.buckets[b], e)
		c.inRing++
		return
	}
	pos := sort.Search(len(c.overflow), func(i int) bool { return less(e, c.overflow[i]) })
	c.overflow = append(c.overflow, heapEntry{})
	copy(c.overflow[pos+1:], c.overflow[pos:])
	c.overflow[pos] = e
	s.slots[e.idx].bucket = calOverflow
	for i := pos; i < len(c.overflow); i++ {
		s.slots[c.overflow[i].idx].heapIdx = int32(i)
	}
}

// remove unfiles a pending entry (Cancel's backend half). The slot's
// bucket/heapIdx say where it is; the caller releases the slot.
func (c *calendar) remove(s *Scheduler, idx int32) {
	sl := &s.slots[idx]
	pos := int(sl.heapIdx)
	if sl.bucket == calOverflow {
		c.overflowRemove(s, pos)
		return
	}
	b := c.buckets[sl.bucket]
	last := len(b) - 1
	if pos != last {
		b[pos] = b[last]
		s.slots[b[pos].idx].heapIdx = int32(pos)
	}
	c.buckets[sl.bucket] = b[:last]
	if last == 0 {
		c.occClear(int(sl.bucket))
	}
	c.inRing--
}

// overflowRemove deletes the band entry at pos, keeping the band sorted
// and the positions behind it in sync.
func (c *calendar) overflowRemove(s *Scheduler, pos int) {
	copy(c.overflow[pos:], c.overflow[pos+1:])
	c.overflow = c.overflow[:len(c.overflow)-1]
	for i := pos; i < len(c.overflow); i++ {
		s.slots[c.overflow[i].idx].heapIdx = int32(i)
	}
}

// migrate pulls the overflow band's due prefix — entries now within one
// lap of the clock — into the ring. O(1) when nothing is due.
func (c *calendar) migrate(s *Scheduler) {
	horizon := c.horizon(s.now)
	if len(c.overflow) == 0 || c.overflow[0].at >= horizon {
		return
	}
	n := sort.Search(len(c.overflow), func(i int) bool { return c.overflow[i].at >= horizon })
	for _, e := range c.overflow[:n] {
		c.place(s, e, horizon)
	}
	copy(c.overflow, c.overflow[n:])
	c.overflow = c.overflow[:len(c.overflow)-n]
	for i := range c.overflow {
		s.slots[c.overflow[i].idx].heapIdx = int32(i)
	}
}

// findMin locates the earliest pending entry without removing it:
// (bucket, position) within the ring, or bucket == calOverflow and
// position 0 for the band head (only when the ring is empty — a ring
// entry is always earlier than every band entry). It migrates due band
// entries first, a mutation that never changes which entry is least.
// Returns ok == false on an empty queue.
func (c *calendar) findMin(s *Scheduler) (int, int, bool) {
	c.migrate(s)
	if c.inRing == 0 {
		if len(c.overflow) == 0 {
			return 0, 0, false
		}
		// Band head more than a lap out (a long idle gap): it is the
		// minimum itself.
		return calOverflow, 0, true
	}
	b := c.nextOccupied(int((s.now / c.width) % time.Duration(len(c.buckets))))
	entries := c.buckets[b]
	best := 0
	for i := 1; i < len(entries); i++ {
		if less(entries[i], entries[best]) {
			best = i
		}
	}
	return b, best, true
}

// take removes the entry previously located by findMin and returns it.
func (c *calendar) take(s *Scheduler, bucket, pos int) heapEntry {
	if bucket == calOverflow {
		e := c.overflow[0]
		c.overflowRemove(s, 0)
		return e
	}
	b := c.buckets[bucket]
	e := b[pos]
	last := len(b) - 1
	if pos != last {
		b[pos] = b[last]
		s.slots[b[pos].idx].heapIdx = int32(pos)
	}
	c.buckets[bucket] = b[:last]
	if last == 0 {
		c.occClear(bucket)
	}
	c.inRing--
	return e
}

// noteGap feeds one dequeue into the width statistic, shrinks the ring
// when the pending count has fallen well under its capacity, and
// periodically corrects a stale width. The gap statistic is an exact
// windowed mean — simulated time elapsed over the window divided by
// the dequeues in it — rather than a per-gap EWMA: simulations bunch
// many events onto one instant (slot-aligned MAC timers), and a
// filter fed mostly zero gaps with occasional spikes oscillates hard
// enough to thrash the re-file trigger.
func (c *calendar) noteGap(s *Scheduler, at time.Duration) {
	if !c.popped {
		c.popped = true
		c.anchorAt = at
		c.pops = 0
		return
	}
	c.pops++
	if len(c.buckets) > calMinBuckets && c.count() < len(c.buckets)/4 {
		c.resize(s, len(c.buckets)/2)
		return
	}
	if c.pops >= c.adaptAt {
		c.avgGap = (at - c.anchorAt) / time.Duration(c.pops)
		c.anchorAt = at
		c.pops = 0
		if c.adaptAt < calAdaptPops {
			c.adaptAt *= 2
		}
		if w := c.targetWidth(); w > 2*c.width || 2*w < c.width {
			c.resize(s, len(c.buckets))
		}
	}
}

// targetWidth derives the adapted bucket width from the dequeue-gap
// average: wide enough that consecutive events rarely straddle many
// empty buckets, narrow enough that a bucket holds a handful of
// events.
func (c *calendar) targetWidth() time.Duration {
	w := 4 * c.avgGap
	if w <= 0 {
		return c.width
	}
	if w > calMaxWidth {
		return calMaxWidth
	}
	return w
}

// resize rebuilds the ring with n buckets and the adapted width,
// re-filing every pending entry. The entries are staged through a
// retained scratch buffer and the bucket/band slices keep their
// capacities whenever possible, so the width corrections a bursty
// workload triggers repeatedly re-file in place instead of reallocating
// the whole ring each time. Entries re-file in the same sequence the
// old code visited them (ring buckets in order, then the ascending
// band), so per-bucket entry order — and with it every downstream
// tie-break — is unchanged.
func (c *calendar) resize(s *Scheduler, n int) {
	if n < calMinBuckets {
		n = calMinBuckets
	}
	s.calResizes++
	sc := c.scratch[:0]
	for _, b := range c.buckets {
		sc = append(sc, b...)
	}
	sc = append(sc, c.overflow...)
	c.scratch = sc
	if n != len(c.buckets) {
		if n > len(c.bucketStore) {
			grown := make([][]heapEntry, n)
			copy(grown, c.bucketStore)
			c.bucketStore = grown
			c.occStore = make([]uint64, n/64)
		}
		c.buckets = c.bucketStore[:n]
		c.occ = c.occStore[:n/64]
	}
	for i := range c.buckets {
		c.buckets[i] = c.buckets[i][:0]
	}
	clear(c.occ)
	c.overflow = c.overflow[:0]
	c.inRing = 0
	c.width = c.targetWidth()
	c.setLap()
	horizon := c.horizon(s.now)
	for _, e := range sc {
		c.place(s, e, horizon)
	}
}

// reset empties the calendar back to its just-constructed shape while
// keeping bucket capacities, mirroring Scheduler.Reset's arena reuse.
func (c *calendar) reset() {
	for i := range c.buckets {
		c.buckets[i] = c.buckets[i][:0]
	}
	clear(c.occ)
	c.overflow = c.overflow[:0]
	c.width = calDefaultWidth
	c.setLap()
	c.inRing = 0
	c.avgGap = 0
	c.anchorAt = 0
	c.popped = false
	c.pops = 0
	c.adaptAt = calFirstAdapt
}

// Kind selects a Scheduler's queue backend.
type Kind uint8

const (
	// KindHeap is the 4-ary heap, the reference backend.
	KindHeap Kind = iota
	// KindCalendar is the calendar queue: O(1) near-future scheduling
	// with a sorted overflow band, for city-scale event populations.
	KindCalendar
)

// String returns the spec/CLI spelling of the kind.
func (k Kind) String() string {
	switch k {
	case KindHeap:
		return "heap"
	case KindCalendar:
		return "calendar"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// ParseKind parses the spec/CLI spelling of a scheduler backend.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "", "heap":
		return KindHeap, nil
	case "calendar":
		return KindCalendar, nil
	}
	return 0, fmt.Errorf("sim: unknown scheduler kind %q (want heap or calendar)", s)
}

// SetKind switches the scheduler's queue backend. Both backends share
// the slot arena, Event handles and the (at, sub, seq) total order, so
// runs are bit-identical either way — the calendar trades the heap's
// O(log n) sift for O(1) bucket filing on large event populations. The
// switch is only legal while the queue is empty (between runs, or
// right after construction/Reset); re-filing a live queue is not
// supported.
func (s *Scheduler) SetKind(k Kind) {
	if s.Len() != 0 {
		panic("sim: SetKind with events pending")
	}
	switch k {
	case KindHeap:
		s.cal = nil
	case KindCalendar:
		if s.cal == nil {
			s.cal = newCalendar()
		} else {
			s.cal.reset()
		}
	default:
		panic(fmt.Sprintf("sim: unknown scheduler kind %d", k))
	}
}

// Kind reports the scheduler's current queue backend.
func (s *Scheduler) Kind() Kind {
	if s.cal != nil {
		return KindCalendar
	}
	return KindHeap
}

// calStep is Step's calendar half: pop the least entry, advance the
// clock, run the callback.
func (s *Scheduler) calStep() bool {
	c := s.cal
	bucket, pos, ok := c.findMin(s)
	if !ok {
		return false
	}
	e := c.take(s, bucket, pos)
	sl := &s.slots[e.idx]
	s.now = e.at
	fn, act := sl.fn, sl.act
	c.noteGap(s, e.at)
	s.release(e.idx)
	s.fired++
	if fn != nil {
		fn()
	} else {
		act.Act()
	}
	return true
}

// calRunUntil is RunUntil's calendar half: one findMin per event (a
// PeekAt-then-Step loop would scan the ring twice per pop).
func (s *Scheduler) calRunUntil(t time.Duration) {
	c := s.cal
	for {
		bucket, pos, ok := c.findMin(s)
		if !ok {
			break
		}
		var at time.Duration
		if bucket == calOverflow {
			at = c.overflow[pos].at
		} else {
			at = c.buckets[bucket][pos].at
		}
		if at > t {
			break
		}
		e := c.take(s, bucket, pos)
		sl := &s.slots[e.idx]
		s.now = e.at
		fn, act := sl.fn, sl.act
		c.noteGap(s, e.at)
		s.release(e.idx)
		s.fired++
		if fn != nil {
			fn()
		} else {
			act.Act()
		}
	}
	s.now = t
}
