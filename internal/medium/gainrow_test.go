package medium

import (
	"testing"

	"adhocsim/internal/phy"
	"adhocsim/internal/sim"
)

// newGridField attaches side×side radios on a 700 m grid under a
// fade-free default profile: the spatial index is live and every
// transmitter's candidate set is a small neighborhood of the field.
func newGridField(side int) (*sim.Scheduler, *Medium, []*Radio) {
	prof := phy.DefaultProfile()
	prof.Fading.SigmaDB = 0
	sched := sim.NewScheduler()
	m := New(sched, sim.NewSource(1))
	radios := make([]*Radio, 0, side*side)
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			pos := phy.Pos(float64(x)*700, float64(y)*700)
			radios = append(radios, m.AddRadio(uint32(len(radios)+1), pos, prof, &mockHandler{}))
		}
	}
	return sched, m, radios
}

// TestGainRowsSizedByCandidates guards the link-gain cache's memory
// bound: a transmitter's row holds one entry per candidate receiver, not
// one per radio on the field, and a radio that never transmits holds
// none.
func TestGainRowsSizedByCandidates(t *testing.T) {
	sched, m, radios := newGridField(24)
	n := len(radios)
	sent := map[*Radio]bool{}
	for i := 0; i < n; i += 7 {
		r := radios[i]
		r.Transmit(dataFrame(r.ID(), r.ID()+1, 256), phy.Rate11)
		sched.Run()
		sent[r] = true
	}
	if m.index == nil {
		t.Fatal("spatial index not built; the test needs the indexed path")
	}
	for _, r := range radios {
		if !sent[r] {
			if len(r.gains) != 0 {
				t.Fatalf("radio %d never transmitted but holds %d gain entries", r.ID(), len(r.gains))
			}
			continue
		}
		if len(r.gains) != len(r.cand) {
			t.Fatalf("radio %d: %d gain entries for %d candidates", r.ID(), len(r.gains), len(r.cand))
		}
		if len(r.cand) == 0 || len(r.cand) > n/8 {
			t.Fatalf("radio %d: %d candidates on a %d-radio field, want a small neighborhood", r.ID(), len(r.cand), n)
		}
	}
}

// TestGainRowKeptAcrossUnchangedRebuild moves radios after a
// transmitter has filled its row. Every move bumps the geometry epoch,
// so the transmitter's next fan-out rebuilds its candidate list and
// re-probes every candidate. A rebuild that finds the same list keeps
// the row, so only a link whose endpoint moved may recompute its
// path-loss base; a rebuild that changes the list starts the row afresh.
func TestGainRowKeptAcrossUnchangedRebuild(t *testing.T) {
	sched, m, radios := newGridField(16)
	tx := radios[0] // corner station at (0, 0)
	send := func() {
		tx.Transmit(dataFrame(tx.ID(), tx.ID()+1, 256), phy.Rate11)
		sched.Run()
	}
	send()
	inCand := func(r *Radio) bool {
		for _, s := range tx.cand {
			if s == uint32(r.slot) {
				return true
			}
		}
		return false
	}
	step := func(name string, move func(), wantMisses func() uint64) {
		t.Helper()
		before := m.Stats()
		epoch := m.posEpoch
		move()
		if m.posEpoch == epoch {
			t.Fatalf("%s: move did not bump the geometry epoch", name)
		}
		send()
		after := m.Stats()
		if after.CandRebuilds != before.CandRebuilds+1 || after.FanBuilds != before.FanBuilds+1 {
			t.Fatalf("%s: candidate rebuilds +%d, fan builds +%d; want +1 each",
				name, after.CandRebuilds-before.CandRebuilds, after.FanBuilds-before.FanBuilds)
		}
		if got, want := after.GainMisses-before.GainMisses, wantMisses(); got != want {
			t.Fatalf("%s: fan-out added %d gain misses, want %d", name, got, want)
		}
		if len(tx.gains) != len(tx.cand) {
			t.Fatalf("%s: %d gain entries for %d candidates", name, len(tx.gains), len(tx.cand))
		}
	}
	misses := func(n uint64) func() uint64 { return func() uint64 { return n } }

	far := radios[len(radios)-1] // opposite corner, ~15 km away
	if inCand(far) {
		t.Fatal("far corner is a candidate; the field is too small for the test")
	}
	step("move outside the candidate set", func() { far.SetPos(phy.Pos(10400, 10300)) }, misses(0))
	if inCand(far) {
		t.Fatal("far radio joined the candidate set")
	}

	near := radios[1] // neighbor at (700, 0)
	if !inCand(near) {
		t.Fatal("neighbor is not a candidate")
	}
	step("move within the candidate set", func() { near.SetPos(phy.Pos(650, 20)) }, misses(1))

	// Every receiver in the new list recomputes; the transmitter's own
	// slot is a candidate but never probed.
	step("move into the candidate set", func() { far.SetPos(phy.Pos(300, 300)) },
		func() uint64 { return uint64(len(tx.cand) - 1) })
	if !inCand(far) {
		t.Fatal("far radio did not join the candidate set")
	}

	// A receiver leaving from the middle of the list shifts every later
	// entry: none of the old row may be served to the wrong receiver.
	step("move out of the candidate set", func() { near.SetPos(phy.Pos(10400, 10300)) },
		func() uint64 { return uint64(len(tx.cand) - 1) })
	if inCand(near) {
		t.Fatal("neighbor stayed in the candidate set")
	}
}

// TestGainCacheToggleRekeysRows runs a transmitter with the cache off
// while its candidate list changes: no row is kept on that path, and
// re-enabling the cache keys the row to the current list.
func TestGainCacheToggleRekeysRows(t *testing.T) {
	sched, m, radios := newGridField(16)
	tx := radios[0]
	send := func() {
		tx.Transmit(dataFrame(tx.ID(), tx.ID()+1, 256), phy.Rate11)
		sched.Run()
	}
	m.SetGainCache(false)
	send()
	if len(tx.gains) != 0 {
		t.Fatalf("cache off: transmitter holds %d gain entries, want none", len(tx.gains))
	}
	m.SetGainCache(true)
	send()
	want := len(tx.cand)
	m.SetGainCache(false)
	radios[1].SetPos(phy.Pos(10400, 10300)) // leaves the candidate set
	send()
	if len(tx.cand) != want-1 {
		t.Fatalf("candidate list has %d entries after the move, want %d", len(tx.cand), want-1)
	}
	m.SetGainCache(true)
	if len(tx.gains) != len(tx.cand) {
		t.Fatalf("re-enabled cache: %d gain entries for %d candidates", len(tx.gains), len(tx.cand))
	}
	before := m.Stats()
	send()
	if got, want := m.Stats().GainMisses-before.GainMisses, uint64(len(tx.cand)-1); got != want {
		t.Fatalf("re-enabled cache: fan-out added %d gain misses, want %d", got, want)
	}
}

// TestBruteForceProbesEveryTransmission keeps the exhaustive path an
// independent reference for the fan-out memo: a repeat transmission on
// an unchanged field re-probes every radio instead of replaying.
func TestBruteForceProbesEveryTransmission(t *testing.T) {
	sched, m, radios := newGridField(4)
	m.SetBruteForce(true)
	tx := radios[0]
	for i := 0; i < 3; i++ {
		tx.Transmit(dataFrame(tx.ID(), tx.ID()+1, 256), phy.Rate11)
		sched.Run()
	}
	if st := m.Stats(); st.FanReplays != 0 || st.FanBuilds != 3 {
		t.Fatalf("brute force: %d fan-out replays, %d builds; want 0 and 3", st.FanReplays, st.FanBuilds)
	}
	if len(tx.cand) != len(radios) || len(tx.gains) != len(radios) {
		t.Fatalf("brute force: %d candidates, %d gain entries; want every slot (%d)", len(tx.cand), len(tx.gains), len(radios))
	}
}
