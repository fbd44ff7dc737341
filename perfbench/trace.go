package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"adhocsim/internal/obs"
	"adhocsim/internal/runner"
	"adhocsim/internal/scenario"
)

// span is one timed call into a layer, kept in memory and written out
// when the run ends. Parent 0 is the root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Panel   string `json:"panel"`
	Seed    uint64 `json:"seed,omitempty"`
	Obs     bool   `json:"obs"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

type tracer struct {
	epoch   time.Time
	spans   []span
	profile []byte // gzipped pprof CPU profile of the traced blocks
}

func (t *tracer) begin(parent int, name, panel string, seed uint64, obsOn bool) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Panel: panel, Seed: seed, Obs: obsOn,
		StartNs: int64(time.Since(t.epoch)),
	})
	return len(t.spans)
}

// end closes span id and returns its duration in nanoseconds.
func (t *tracer) end(id int) float64 {
	s := &t.spans[id-1]
	s.EndNs = int64(time.Since(t.epoch))
	return float64(s.EndNs - s.StartNs)
}

// write saves the spans, and the CPU profile they were taken under, as
// <workload>-seed<seed>.json and .pprof in dir.
func (t *tracer) write(dir, workload string, seed uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", workload, seed))
	if err := os.WriteFile(base+".pprof", t.profile, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(base+".json", data, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// repValues holds one panel's per-replication readings by key; off holds
// the untraced (obs off) replications' wall times.
type repValues struct {
	on  map[string][]float64
	off map[string][]float64
}

func (v repValues) add(obsOn bool, key string, x float64) {
	m := v.off
	if obsOn {
		m = v.on
	}
	m[key] = append(m[key], x)
}

// traced is the per-layer measurement. For each panel it runs four
// blocks over the reference seeds, obs off / on / on / off (each half of
// the seeds once per mode, so drift cancels), driving Build, Reset,
// Run and Collect directly as scenario.Replicate's workers do. Every
// call gets a span; the traced (obs on) replications also read every
// layer's public counters. A CPU profile covers all four blocks, and
// its samples are charged to layers by package.
func traced(w workload, panels []panel, tr *tracer) (values map[string]float64, t tally, profileSamples int, err error) {
	retained, err := retainedHeapBytes(panels[0].spec)
	if err != nil {
		return nil, tally{}, 0, err
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, tally{}, 0, fmt.Errorf("cpu profile: %w", err)
	}
	vals := make([]repValues, len(panels))
	half := w.seeds / 2
	first, second := seedRange(0, half), seedRange(half, w.seeds)
	for i := range panels {
		vals[i] = repValues{on: map[string][]float64{}, off: map[string][]float64{}}
		for _, b := range []struct {
			on    bool
			seeds []int
		}{{false, first}, {true, first}, {true, second}, {false, second}} {
			t.add(runBlock(tr, &panels[i], b.on, b.seeds, vals[i]))
		}
	}
	pprof.StopCPUProfile()
	tr.profile = prof.Bytes()
	samples, err := parseProfile(tr.profile)
	if err != nil {
		return nil, tally{}, 0, err
	}
	values = perLayer(panels, vals, t)
	values["scenario.retained_heap_mb"] = float64(retained) / 1e6
	for layer, share := range cpuShares(samples) {
		values[layer+".cpu_share"] = share
	}
	return values, t, len(samples), nil
}

func seedRange(from, to int) []int {
	var s []int
	for i := from; i < to; i++ {
		s = append(s, i)
	}
	return s
}

// retainedHeapBytes is the live heap one built instance holds.
func retainedHeapBytes(spec scenario.Spec) (uint64, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	inst, err := scenario.Build(spec)
	if err != nil {
		return 0, fmt.Errorf("build %s: %w", spec.Name, err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(inst)
	if after.HeapAlloc < before.HeapAlloc {
		return 0, nil
	}
	return after.HeapAlloc - before.HeapAlloc, nil
}

// runBlock runs one block of replications on one instance (sequential
// kernel: Build once, then Reset per seed) or one Build per seed
// (parallel kernel, which cannot Reset), and checks each result against
// the reference.
func runBlock(tr *tracer, p *panel, obsOn bool, seeds []int, v repValues) (t tally) {
	spec := p.spec
	var reg *obs.Registry
	if obsOn {
		reg = obs.NewRegistry()
		spec.Obs = &scenario.ObsParams{Enabled: true}
		spec.ObsRegistry = reg
	}
	parallel := spec.Parallel != nil
	// The previous block's instance is garbage now; collect it before
	// this block builds, so two city-scale networks never share the heap.
	runtime.GC()
	block := tr.begin(0, "block", spec.Name, 0, obsOn)
	defer tr.end(block)
	inFlight := false
	defer func() {
		if r := recover(); r != nil {
			// The replication that panicked and every one not yet run
			// count as failed.
			fmt.Fprintf(os.Stderr, "perfbench: traced block of %s panicked: %v\n", spec.Name, r)
			if inFlight {
				t.failed++
			}
			rest := len(seeds) - t.attempted
			t.attempted += rest
			t.failed += rest
		}
	}()

	var inst *scenario.Instance
	if !parallel {
		s := spec
		s.Seed = runner.SeedFor(spec.Seed, seeds[0])
		b := tr.begin(block, "scenario.build", spec.Name, s.Seed, obsOn)
		var err error
		if inst, err = scenario.Build(s); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: build %s: %v\n", spec.Name, err)
			return tally{attempted: len(seeds), failed: len(seeds)}
		}
		v.add(obsOn, "build_ns", tr.end(b))
	}
	var prev obs.Snapshot
	for _, i := range seeds {
		seed := runner.SeedFor(spec.Seed, i)
		if obsOn {
			e := tr.begin(block, "scenario.expand", spec.Name, seed, obsOn)
			if _, err := spec.Topology.Expand(seed); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: expand %s: %v\n", spec.Name, err)
			}
			v.add(obsOn, "expand_ns", tr.end(e))
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		rep := tr.begin(block, "replication", spec.Name, seed, obsOn)
		t.attempted++
		inFlight = true
		if parallel {
			s := spec
			s.Seed = seed
			b := tr.begin(rep, "scenario.build", spec.Name, seed, obsOn)
			var err error
			if inst, err = scenario.Build(s); err != nil {
				tr.end(b)
				tr.end(rep)
				fmt.Fprintf(os.Stderr, "perfbench: build %s: %v\n", spec.Name, err)
				t.failed++
				inFlight = false
				continue
			}
			v.add(obsOn, "build_ns", tr.end(b))
		} else {
			r := tr.begin(rep, "scenario.reset", spec.Name, seed, obsOn)
			err := inst.Reset(seed)
			v.add(obsOn, "reset_ns", tr.end(r))
			if err != nil {
				tr.end(rep)
				fmt.Fprintf(os.Stderr, "perfbench: reset %s: %v\n", spec.Name, err)
				t.failed++
				inFlight = false
				continue
			}
		}
		horizon := inst.Spec.Duration.D()
		x := tr.begin(rep, "scenario.run", spec.Name, seed, obsOn)
		inst.Net.Run(horizon)
		runNs := tr.end(x)
		c := tr.begin(rep, "scenario.collect", spec.Name, seed, obsOn)
		res := inst.Collect(horizon)
		v.add(obsOn, "collect_ns", tr.end(c))
		repNs := tr.end(rep)
		runtime.ReadMemStats(&ms1)
		v.add(obsOn, "run_ns", runNs)
		v.add(obsOn, "rep_ns", repNs)
		if parallel && !obsOn {
			v.add(false, "speedup", ratio(p.ref.runNs[i], repNs))
		}

		u := checkRuns([]scenario.Result{res}, reference{
			results:    []scenario.Result{p.ref.results[i]},
			seqResults: []scenario.Result{p.ref.seqResults[i]},
		}, parallel)
		t.failed += u.failed
		t.mismatched += u.mismatched
		inFlight = false
		if !obsOn {
			continue
		}
		snap := reg.Snapshot()
		readCounters(v, inst, res, p.ref.logical[i], snap, prev, runNs)
		prev = snap
		v.add(true, "gc_cycles", float64(ms1.NumGC-ms0.NumGC))
		v.add(true, "gc_pause_ns", float64(ms1.PauseTotalNs-ms0.PauseTotalNs))
	}
	return t
}

// readCounters records one traced replication's layer counters.
func readCounters(v repValues, inst *scenario.Instance, res scenario.Result, logical float64, snap, prev obs.Snapshot, runNs float64) {
	add := func(key string, x float64) { v.add(true, key, x) }
	ks := inst.Net.KernelStats()
	add("fired", float64(ks.Fired))
	add("pushes", float64(ks.Pushes))
	add("cal_resizes", float64(ks.CalResizes))
	add("logical", logical)
	if es := inst.ExecStats(); es != nil {
		add("windows", float64(es.Windows))
		add("messages", float64(es.Messages))
		add("load_balance", es.LoadBalance)
		add("worker_run_ns", float64(es.RegionWorkers)*runNs)
		add("barrier_wait_ns", float64(histSum(snap, "exec_barrier_wait_ns")-histSum(prev, "exec_barrier_wait_ns")))
	}
	ms := inst.Net.Medium.Stats()
	add("tx", float64(ms.Transmissions))
	add("deliveries", float64(ms.Deliveries))
	add("phy_errors", float64(ms.PHYErrors))
	add("gain_hits", float64(ms.GainHits))
	add("gain_lookups", float64(ms.GainHits+ms.GainMisses))
	add("fan_replays", float64(ms.FanReplays))
	add("fan_total", float64(ms.FanReplays+ms.FanBuilds))
	add("cand_reuses", float64(ms.CandReuses))
	add("cand_total", float64(ms.CandReuses+ms.CandRebuilds))
	add("soa_rescans", float64(ms.SoARescans))

	var dataTx, retx, rts, ackTO, eifs, drops uint64
	for _, st := range inst.Net.Stations {
		c := &st.MAC.Counters
		dataTx += c.DataTx
		retx += c.DataRetx
		rts += c.RTSTx
		ackTO += c.ACKTimeouts
		eifs += c.EIFSDeferrals
		drops += c.TxDrops
	}
	add("mac_data_tx", float64(dataTx))
	add("mac_retx", float64(retx))
	add("mac_rts_tx", float64(rts))
	add("mac_ack_timeouts", float64(ackTO))
	add("mac_eifs", float64(eifs))
	add("mac_tx_drops", float64(drops))

	var tcpSent, tcpDelivered, appBytes float64
	for _, f := range res.Flows {
		appBytes += float64(f.Bytes)
		if f.Transport == scenario.TransportTCP {
			tcpSent += float64(f.AppSent)
			tcpDelivered += float64(f.Received)
		}
	}
	add("tcp_sent", tcpSent)
	add("tcp_delivered", tcpDelivered)
	add("app_bytes", appBytes)
	var fwd, dropped, adverts, ctlBytes float64
	for _, st := range res.Stations {
		fwd += float64(st.NetForwarded)
		dropped += float64(st.NetDropped)
		adverts += float64(st.CtlAdverts)
		ctlBytes += float64(st.CtlBytes)
	}
	add("net_forwarded", fwd)
	add("net_dropped", dropped)
	add("adverts", adverts)
	add("ctl_bytes", ctlBytes)
	add("crashes", float64(counter(snap, "faults_crashes_applied_total")-counter(prev, "faults_crashes_applied_total")))
	add("restarts", float64(counter(snap, "faults_restarts_applied_total")-counter(prev, "faults_restarts_applied_total")))
}

func counter(s obs.Snapshot, name string) uint64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

func histSum(s obs.Snapshot, name string) uint64 {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h.Sum
		}
	}
	return 0
}

// perLayer folds the traced replications into the per-layer metrics.
// Counts and timings are per replication: the median over a panel's
// traced replications, summed over panels (one replication of the
// whole matrix). Ratios divide sums over every traced replication;
// load balance and speedup are medians over all of them.
func perLayer(panels []panel, vals []repValues, t tally) map[string]float64 {
	perRep := func(key string) float64 {
		var x float64
		for _, v := range vals {
			x += median(v.on[key])
		}
		return x
	}
	total := func(key string) float64 {
		var x float64
		for _, v := range vals {
			for _, y := range v.on[key] {
				x += y
			}
		}
		return x
	}
	var reps, onRep, offRep float64
	var speedup, balance []float64
	for _, v := range vals {
		reps += float64(len(v.on["rep_ns"]))
		onRep += median(v.on["rep_ns"])
		offRep += median(v.off["rep_ns"])
		speedup = append(speedup, v.off["speedup"]...)
		balance = append(balance, v.on["load_balance"]...)
	}
	return map[string]float64{
		"scenario.build_ms":   perRep("build_ns") / 1e6,
		"scenario.expand_ms":  perRep("expand_ns") / 1e6,
		"scenario.reset_ms":   perRep("reset_ns") / 1e6,
		"scenario.run_ms":     perRep("run_ns") / 1e6,
		"scenario.collect_ms": perRep("collect_ns") / 1e6,

		"sim.fired_per_rep":     perRep("fired"),
		"sim.pushes_per_rep":    perRep("pushes"),
		"sim.calendar_resizes":  perRep("cal_resizes"),
		"sim.fired_per_logical": ratio(total("fired"), total("logical")),

		"exec.windows":            perRep("windows"),
		"exec.messages":           perRep("messages"),
		"exec.events_per_window":  ratio(total("fired"), total("windows")),
		"exec.load_balance":       median(balance),
		"exec.barrier_wait_share": ratio(total("barrier_wait_ns"), total("worker_run_ns")),
		"exec.speedup_vs_seq":     median(speedup),
		"exec.seq_mismatch_ratio": ratio(float64(t.mismatched), float64(t.attempted)),

		"medium.transmissions":         perRep("tx"),
		"medium.deliveries":            perRep("deliveries"),
		"medium.phy_errors":            perRep("phy_errors"),
		"medium.gain_hit_ratio":        ratio(total("gain_hits"), total("gain_lookups")),
		"medium.fanout_replay_ratio":   ratio(total("fan_replays"), total("fan_total")),
		"medium.candidate_reuse_ratio": ratio(total("cand_reuses"), total("cand_total")),
		"medium.soa_rescans":           perRep("soa_rescans"),

		"mac.data_tx":        perRep("mac_data_tx"),
		"mac.retx_ratio":     ratio(total("mac_retx"), total("mac_data_tx")),
		"mac.rts_tx":         perRep("mac_rts_tx"),
		"mac.ack_timeouts":   perRep("mac_ack_timeouts"),
		"mac.eifs_deferrals": perRep("mac_eifs"),
		"mac.tx_drops":       perRep("mac_tx_drops"),

		"transport.tcp_segs_sent":    perRep("tcp_sent"),
		"transport.tcp_useful_ratio": ratio(total("tcp_delivered"), total("tcp_sent")),

		"network.forwarded":              perRep("net_forwarded"),
		"network.dropped":                perRep("net_dropped"),
		"routing.adverts":                perRep("adverts"),
		"routing.ctl_bytes_per_app_byte": ratio(total("ctl_bytes"), total("app_bytes")),

		"faults.crashes_applied":  perRep("crashes"),
		"faults.restarts_applied": perRep("restarts"),

		"gc.cycles_per_rep":   ratio(total("gc_cycles"), reps),
		"gc.pause_ms_per_rep": ratio(total("gc_pause_ns"), reps) / 1e6,

		"obs.overhead_ratio": ratio(onRep, offRep),
	}
}
