package medium

import (
	"testing"
	"time"

	"adhocsim/internal/frame"
	"adhocsim/internal/phy"
	"adhocsim/internal/sim"
)

// mockHandler records PHY indications for assertions.
type mockHandler struct {
	ccaEdges []bool
	rx       []rxRecord
	txDone   int
}

type rxRecord struct {
	f    *frame.Frame
	rate phy.Rate
	ok   bool
	at   time.Duration
}

type mockEnv struct {
	sched *sim.Scheduler
	m     *Medium
}

func (h *mockHandler) CCAChanged(busy bool) { h.ccaEdges = append(h.ccaEdges, busy) }
func (h *mockHandler) TxDone()              { h.txDone++ }
func (h *mockHandler) RxEnd(f *frame.Frame, rate phy.Rate, rssi float64, ok bool) {
	h.rx = append(h.rx, rxRecord{f: f, rate: rate, ok: ok})
}

// newEnv builds a medium with a fade-free default profile so geometry is
// deterministic.
func newEnv() (*mockEnv, *phy.Profile) {
	prof := phy.DefaultProfile()
	prof.Fading.SigmaDB = 0
	sched := sim.NewScheduler()
	return &mockEnv{sched: sched, m: New(sched, sim.NewSource(1))}, prof
}

func dataFrame(from, to uint32, size int) *frame.Frame {
	return &frame.Frame{
		Type:    frame.TypeData,
		Addr1:   frame.AddrFromID(to),
		Addr2:   frame.AddrFromID(from),
		Payload: make([]byte, size),
	}
}

func TestDeliveryInRange(t *testing.T) {
	env, prof := newEnv()
	hA, hB := &mockHandler{}, &mockHandler{}
	a := env.m.AddRadio(1, phy.Pos(0, 0), prof, hA)
	env.m.AddRadio(2, phy.Pos(20, 0), prof, hB)

	f := dataFrame(1, 2, 512)
	air := a.Transmit(f, phy.Rate11)
	env.sched.Run()

	if hA.txDone != 1 {
		t.Fatalf("sender TxDone = %d, want 1", hA.txDone)
	}
	if len(hB.rx) != 1 || !hB.rx[0].ok {
		t.Fatalf("receiver rx = %+v, want one successful frame", hB.rx)
	}
	if hB.rx[0].f != f {
		t.Fatal("delivered frame is not the transmitted frame")
	}
	wantAir := phy.DataTime(phy.Rate11, 512)
	if air != wantAir {
		t.Fatalf("airtime = %v, want %v", air, wantAir)
	}
	// Receiver saw a busy edge then an idle edge.
	if len(hB.ccaEdges) != 2 || !hB.ccaEdges[0] || hB.ccaEdges[1] {
		t.Fatalf("receiver CCA edges = %v, want [true false]", hB.ccaEdges)
	}
	// Sender's own TX shows as busy at the sender too.
	if len(hA.ccaEdges) != 2 || !hA.ccaEdges[0] || hA.ccaEdges[1] {
		t.Fatalf("sender CCA edges = %v, want [true false]", hA.ccaEdges)
	}
}

func TestRateDependentRange(t *testing.T) {
	// At 60 m: inside the 1 Mbit/s range (120 m) but outside the
	// 11 Mbit/s range (30 m). The 11 Mbit/s frame locks (PLCP is 1 Mbit/s)
	// but fails decoding — the EIFS trigger. The 1 Mbit/s frame decodes.
	env, prof := newEnv()
	hB := &mockHandler{}
	a := env.m.AddRadio(1, phy.Pos(0, 0), prof, &mockHandler{})
	env.m.AddRadio(2, phy.Pos(60, 0), prof, hB)

	a.Transmit(dataFrame(1, 2, 512), phy.Rate11)
	env.sched.Run()
	if len(hB.rx) != 1 || hB.rx[0].ok {
		t.Fatalf("11 Mbit/s at 60 m: rx = %+v, want one PHY error", hB.rx)
	}

	a.Transmit(dataFrame(1, 2, 512), phy.Rate1)
	env.sched.Run()
	if len(hB.rx) != 2 || !hB.rx[1].ok {
		t.Fatalf("1 Mbit/s at 60 m: rx = %+v, want success", hB.rx)
	}
}

func TestBeyondPLCPDetectOnlyEnergy(t *testing.T) {
	// At 150 m: below PLCP detect (~120 m median) but above the CCA
	// energy threshold (~190 m): the radio senses busy yet never locks.
	env, prof := newEnv()
	hB := &mockHandler{}
	a := env.m.AddRadio(1, phy.Pos(0, 0), prof, &mockHandler{})
	b := env.m.AddRadio(2, phy.Pos(150, 0), prof, hB)

	a.Transmit(dataFrame(1, 2, 512), phy.Rate11)
	env.sched.Run()

	if len(hB.rx) != 0 {
		t.Fatalf("rx = %+v, want none", hB.rx)
	}
	if b.FramesMissed != 1 {
		t.Fatalf("FramesMissed = %d, want 1", b.FramesMissed)
	}
	if len(hB.ccaEdges) != 2 || !hB.ccaEdges[0] {
		t.Fatalf("CCA edges = %v, want busy/idle from energy detect", hB.ccaEdges)
	}
}

func TestBeyondCarrierSenseSilent(t *testing.T) {
	env, prof := newEnv()
	hB := &mockHandler{}
	a := env.m.AddRadio(1, phy.Pos(0, 0), prof, &mockHandler{})
	env.m.AddRadio(2, phy.Pos(300, 0), prof, hB)

	a.Transmit(dataFrame(1, 2, 512), phy.Rate11)
	env.sched.Run()

	if len(hB.ccaEdges) != 0 || len(hB.rx) != 0 {
		t.Fatalf("beyond PCS range: edges=%v rx=%v, want silence", hB.ccaEdges, hB.rx)
	}
}

func TestCollisionCorruptsFrame(t *testing.T) {
	// Two transmitters equidistant from the receiver start simultaneously:
	// comparable power, SINR ~ 0 dB, the locked frame must fail.
	env, prof := newEnv()
	hC := &mockHandler{}
	a := env.m.AddRadio(1, phy.Pos(-20, 0), prof, &mockHandler{})
	b := env.m.AddRadio(2, phy.Pos(20, 0), prof, &mockHandler{})
	env.m.AddRadio(3, phy.Pos(0, 0), prof, hC)

	a.Transmit(dataFrame(1, 3, 512), phy.Rate11)
	b.Transmit(dataFrame(2, 3, 512), phy.Rate11)
	env.sched.Run()

	if len(hC.rx) != 1 {
		t.Fatalf("rx events = %d, want 1 (one lock)", len(hC.rx))
	}
	if hC.rx[0].ok {
		t.Fatal("collision decoded successfully; want corruption")
	}
}

func TestCaptureStrongerFrameWins(t *testing.T) {
	// A weak distant frame locks first; a near transmitter starts
	// mid-reception with >10 dB more power: capture switches the lock and
	// the strong frame decodes.
	env, prof := newEnv()
	sched := env.sched
	hC := &mockHandler{}
	far := env.m.AddRadio(1, phy.Pos(100, 0), prof, &mockHandler{})
	near := env.m.AddRadio(2, phy.Pos(5, 0), prof, &mockHandler{})
	c := env.m.AddRadio(3, phy.Pos(0, 0), prof, hC)

	far.Transmit(dataFrame(1, 3, 512), phy.Rate1)
	sched.At(400*time.Microsecond, func() {
		near.Transmit(dataFrame(2, 3, 256), phy.Rate11)
	})
	sched.Run()

	if c.CaptureSwitches != 1 {
		t.Fatalf("CaptureSwitches = %d, want 1", c.CaptureSwitches)
	}
	// The strong frame decodes; only it produces an RxEnd.
	if len(hC.rx) != 1 || !hC.rx[0].ok || hC.rx[0].rate != phy.Rate11 {
		t.Fatalf("rx = %+v, want the 11 Mbit/s capture to decode", hC.rx)
	}
}

func TestHalfDuplexMissesWhileTransmitting(t *testing.T) {
	env, prof := newEnv()
	hB := &mockHandler{}
	a := env.m.AddRadio(1, phy.Pos(0, 0), prof, &mockHandler{})
	b := env.m.AddRadio(2, phy.Pos(20, 0), prof, hB)

	// Both start at the same instant: each is transmitting when the
	// other's frame arrives.
	a.Transmit(dataFrame(1, 2, 512), phy.Rate11)
	b.Transmit(dataFrame(2, 1, 512), phy.Rate11)
	env.sched.Run()

	if len(hB.rx) != 0 {
		t.Fatalf("rx = %+v, want none (half duplex)", hB.rx)
	}
	if b.FramesMissed != 1 {
		t.Fatalf("FramesMissed = %d, want 1", b.FramesMissed)
	}
}

func TestTransmitWhileTransmittingPanics(t *testing.T) {
	env, prof := newEnv()
	a := env.m.AddRadio(1, phy.Pos(0, 0), prof, &mockHandler{})
	a.Transmit(dataFrame(1, 2, 100), phy.Rate11)
	defer func() {
		if recover() == nil {
			t.Fatal("double Transmit did not panic")
		}
	}()
	a.Transmit(dataFrame(1, 2, 100), phy.Rate11)
}

func TestDuplicateRadioIDPanics(t *testing.T) {
	env, prof := newEnv()
	env.m.AddRadio(1, phy.Pos(0, 0), prof, &mockHandler{})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate radio id did not panic")
		}
	}()
	env.m.AddRadio(1, phy.Pos(10, 0), prof, &mockHandler{})
}

func TestMediumCounters(t *testing.T) {
	env, prof := newEnv()
	a := env.m.AddRadio(1, phy.Pos(0, 0), prof, &mockHandler{})
	env.m.AddRadio(2, phy.Pos(20, 0), prof, &mockHandler{})
	for i := 0; i < 5; i++ {
		a.Transmit(dataFrame(1, 2, 100), phy.Rate11)
		env.sched.Run()
	}
	if env.m.Transmissions != 5 || env.m.Deliveries != 5 || env.m.PHYErrors != 0 {
		t.Fatalf("counters tx=%d rx=%d err=%d, want 5/5/0",
			env.m.Transmissions, env.m.Deliveries, env.m.PHYErrors)
	}
	if a.FramesSent != 5 {
		t.Fatalf("FramesSent = %d, want 5", a.FramesSent)
	}
}

func TestMobilityAffectsDelivery(t *testing.T) {
	env, prof := newEnv()
	hB := &mockHandler{}
	a := env.m.AddRadio(1, phy.Pos(0, 0), prof, &mockHandler{})
	b := env.m.AddRadio(2, phy.Pos(20, 0), prof, hB)

	a.Transmit(dataFrame(1, 2, 100), phy.Rate11)
	env.sched.Run()
	b.SetPos(phy.Pos(300, 0))
	a.Transmit(dataFrame(1, 2, 100), phy.Rate11)
	env.sched.Run()

	if len(hB.rx) != 1 {
		t.Fatalf("rx = %d events, want exactly 1 (second out of range)", len(hB.rx))
	}
}

func TestFadedLinkLossRateMatchesAnalytic(t *testing.T) {
	// With fading enabled, the empirical delivery rate at the median
	// range should be ~50%, matching Profile.LossProbability.
	prof := phy.DefaultProfile()
	prof.Fading.Coherence = time.Millisecond // fast fading:every frame gets a new epoch
	sched := sim.NewScheduler()
	m := New(sched, sim.NewSource(42))
	hB := &mockHandler{}
	d := prof.MedianRange(phy.Rate11)
	a := m.AddRadio(1, phy.Pos(0, 0), prof, &mockHandler{})
	m.AddRadio(2, phy.Pos(d, 0), prof, hB)

	const n = 400
	for i := 0; i < n; i++ {
		sched.RunUntil(time.Duration(i) * 2 * time.Millisecond)
		a.Transmit(dataFrame(1, 2, 100), phy.Rate11)
	}
	sched.Run()

	okCount := 0
	for _, r := range hB.rx {
		if r.ok {
			okCount++
		}
	}
	got := float64(okCount) / n
	if got < 0.40 || got > 0.60 {
		t.Fatalf("delivery rate at median range = %.2f, want ~0.5", got)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() (uint64, uint64) {
		prof := phy.DefaultProfile()
		sched := sim.NewScheduler()
		m := New(sched, sim.NewSource(99))
		a := m.AddRadio(1, phy.Pos(0, 0), prof, &mockHandler{})
		m.AddRadio(2, phy.Pos(prof.MedianRange(phy.Rate11), 0), prof, &mockHandler{})
		for i := 0; i < 100; i++ {
			sched.RunUntil(time.Duration(i) * 300 * time.Millisecond)
			a.Transmit(dataFrame(1, 2, 100), phy.Rate11)
		}
		sched.Run()
		return m.Deliveries, m.PHYErrors
	}
	d1, e1 := run()
	d2, e2 := run()
	if d1 != d2 || e1 != e2 {
		t.Fatalf("runs diverged: (%d,%d) vs (%d,%d)", d1, e1, d2, e2)
	}
}

// TestLinkGainCacheMatchesDirect pits the link-gain cache against the
// direct per-call PHY computation across everything that can invalidate
// an entry — time advancing through coherence epochs, either endpoint
// moving, static and dynamic shadowing components — and requires the
// returned power (and its memoized linear form) to be bit-identical on
// every query, including repeat queries served from the cache.
func TestLinkGainCacheMatchesDirect(t *testing.T) {
	prof := phy.TestbedProfile() // static + dynamic shadowing components
	prof.Fading.Coherence = 10 * time.Millisecond
	sched := sim.NewScheduler()
	src := sim.NewSource(99)
	m := New(sched, src)
	a := m.AddRadio(1, phy.Pos(0, 0), prof, &mockHandler{})
	b := m.AddRadio(2, phy.Pos(35, 0), prof, &mockHandler{})
	c := m.AddRadio(3, phy.Pos(10, 40), prof, &mockHandler{})

	// One cache entry per directed link, kept across queries the way a
	// transmitter's row keeps it.
	entries := map[[2]*Radio]*linkGain{}
	check := func(from, rx *Radio, now time.Duration) {
		t.Helper()
		d := phy.Dist(from.Pos(), rx.Pos())
		want := from.Profile().RxPowerDBm(src, uint64(from.ID()), uint64(rx.ID()), d, now)
		g := entries[[2]*Radio{from, rx}]
		if g == nil {
			g = new(linkGain)
			entries[[2]*Radio{from, rx}] = g
		}
		for i := 0; i < 3; i++ { // repeat: later queries come from the cache
			got := m.linkPower(from, g, rx.slot, now)
			if got != want {
				t.Fatalf("linkPower(%d->%d, %v) query %d = %v, want direct %v",
					from.ID(), rx.ID(), now, i, got, want)
			}
			if mw := g.milliwatt(got); mw != phy.DBmToMilliwatt(want) {
				t.Fatalf("milliwatt(%d->%d, %v) = %v, want direct %v",
					from.ID(), rx.ID(), now, mw, phy.DBmToMilliwatt(want))
			}
		}
	}

	times := []time.Duration{0, 3 * time.Millisecond, 10 * time.Millisecond,
		14 * time.Millisecond, 50 * time.Millisecond}
	pairs := [][2]*Radio{{a, b}, {b, a}, {a, c}, {c, a}, {b, c}, {c, b}}
	for _, now := range times {
		for _, p := range pairs {
			check(p[0], p[1], now)
		}
	}

	// Move one endpoint: both link directions touching it must pick up
	// the new distance; untouched links must stay cached and correct.
	b.SetPos(phy.Pos(80, 5))
	for _, p := range pairs {
		check(p[0], p[1], 50*time.Millisecond)
	}
	a.SetPos(phy.Pos(-20, -20))
	for _, now := range []time.Duration{50 * time.Millisecond, 61 * time.Millisecond} {
		for _, p := range pairs {
			check(p[0], p[1], now)
		}
	}

	// The reference path (no entry) must agree too.
	d := phy.Dist(a.Pos(), b.Pos())
	want := prof.RxPowerDBm(src, 1, 2, d, 70*time.Millisecond)
	if got := m.linkPower(a, nil, b.slot, 70*time.Millisecond); got != want {
		t.Fatalf("direct linkPower = %v, want %v", got, want)
	}
	check(a, b, 70*time.Millisecond)
}
