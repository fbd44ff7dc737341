package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"adhocsim/internal/scenario"
)

func TestMedianAndQuartiles(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if xs[0] != 4 {
		t.Error("median reordered its input")
	}
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{5, 1}, 0, 3, 6}, // extrapolated, as Python does
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestEndToEnd(t *testing.T) {
	ms := float64(time.Millisecond)
	p := panel{
		ref:     reference{logical: []float64{1000, 3000}},
		setupNs: []float64{2 * ms, 4 * ms, 100 * ms},
		samples: []repSample{
			{seed: 0, wall: 10 * ms, cpu: 20 * ms, alloc: 1e6},
			{seed: 1, wall: 33 * ms, cpu: 60 * ms, alloc: 3e6},
			{seed: 0, wall: 12 * ms, cpu: 20 * ms, alloc: 1e6},
			{seed: 1, wall: 300 * ms, cpu: 60 * ms, alloc: 3e6}, // a burst
		},
	}
	m := endToEnd([]panel{p, p})
	// Wall per logical event: 10, 11, 12 and 100 us; median 11.5 us,
	// times 2000 mean logical events is 23 ms per panel. Two identical
	// panels make one matrix replication.
	for name, want := range map[string]float64{
		"setup_s":              0.008,
		"rep_ms":               46,
		"cpu_ms_per_rep":       80,
		"alloc_mb_per_rep":     4,
		"ns_per_logical_event": 11.5e3,
	} {
		if math.Abs(m[name]-want) > 1e-9*want {
			t.Errorf("%s = %v, want %v", name, m[name], want)
		}
	}
}

// TestLogicalEventsPinnedToReference pins the logical-event definition
// to random-1024's recorded pre-batching event stream: 3,695,669 events
// at seed 42, which the definition reproduces to within 16 events.
func TestLogicalEventsPinnedToReference(t *testing.T) {
	spec, err := scenario.Preset("random-1024")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := scenario.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	inst.Net.Run(spec.Duration.D())
	const want = 3_695_669
	got := logicalEvents(inst)
	if d := math.Abs(float64(got) - want); d > 16 {
		t.Errorf("logical events = %d, want %d within 16", got, want)
	}
}

func shortSpec(t *testing.T) scenario.Spec {
	t.Helper()
	spec, err := scenario.Preset("paper-two-node")
	if err != nil {
		t.Fatal(err)
	}
	spec.Duration = scenario.Duration(200 * time.Millisecond)
	return spec
}

func TestCorruptedReferenceCountsAsFailed(t *testing.T) {
	spec := shortSpec(t)
	ref, err := runReference(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	sum, samples, err := timedSweep(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 {
		t.Fatalf("%d samples, want one per replication", len(samples))
	}
	if got := checkSweep(spec, sum, ref); got != (tally{attempted: 3}) {
		t.Fatalf("clean sweep scored %+v, want 3 attempted, none failed", got)
	}

	ref.results[1].Flows[0].Bytes++
	got := checkSweep(spec, sum, ref)
	if got.attempted != 3 || got.failed != 1 {
		t.Errorf("one corrupted reference scored %+v, want 1 of 3 failed", got)
	}
	if r := got.failedRatio(); math.Abs(r-1.0/3) > 1e-12 {
		t.Errorf("failed ratio %v, want 1/3", r)
	}
}

func TestParallelMismatchIsNotFailure(t *testing.T) {
	spec := shortSpec(t)
	ref, err := runReference(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	runs := append([]scenario.Result(nil), ref.results...)
	ref.seqResults = append([]scenario.Result(nil), ref.seqResults...)
	ref.seqResults[0].Stations = append([]scenario.StationResult(nil), ref.seqResults[0].Stations...)
	ref.seqResults[0].Stations[1].EIFSDeferrals++
	if got := checkRuns(runs, ref, true); got != (tally{attempted: 2, mismatched: 1}) {
		t.Errorf("parallel scoring %+v, want 1 of 2 mismatched, none failed", got)
	}
	if got := checkRuns(runs, ref, false); got != (tally{attempted: 2}) {
		t.Errorf("sequential scoring %+v, want no mismatch counted", got)
	}
}

func TestLayerAttribution(t *testing.T) {
	fr := func(fn, file string) frame { return frame{fn: fn, file: file} }
	for _, c := range []struct {
		stack []frame
		want  string
	}{
		{[]frame{fr("math.Log10", "math/log10.go"), fr("adhocsim/internal/phy.(*Profile).PathLoss", "/src/internal/phy/phy.go")}, "phy"},
		{[]frame{fr("adhocsim/internal/sim.(*Exec).prep", "/src/internal/sim/exec.go")}, "exec"},
		{[]frame{fr("adhocsim/internal/sim.(*Scheduler).RunUntil", "/src/internal/sim/scheduler.go")}, "sim"},
		{[]frame{fr("adhocsim/internal/sim.(*calendar).findMin", "/src/internal/sim/calendar.go")}, "sim"},
		{[]frame{fr("runtime.scanobject", ""), fr("runtime.gcDrain", ""), fr("runtime.gcBgMarkWorker", "")}, "gc"},
		{[]frame{fr("runtime.memclrNoHeapPointers", ""), fr("runtime.mallocgc", ""), fr("runtime.newobject", ""),
			fr("adhocsim/internal/medium.(*Medium).newTransmission", "/src/internal/medium/medium.go")}, "alloc"},
		{[]frame{fr("runtime.scanobject", ""), fr("runtime.gcAssistAlloc", ""), fr("runtime.mallocgc", ""),
			fr("adhocsim/internal/mac.(*MAC).send", "/src/internal/mac/dcf.go")}, "gc"},
		{[]frame{fr("adhocsim/internal/runner.MapWith[go.shape.struct {},go.shape.*adhocsim/internal/scenario.Instance]", "/src/internal/runner/runner.go")}, "runner"},
		{[]frame{fr("adhocsim/internal/stats.JainFairness", "/src/internal/stats/stats.go")}, "other"},
		{[]frame{fr("runtime.futex", ""), fr("main.main", "/src/perfbench/main.go")}, "other"},
		{nil, "other"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// Minimal protocol-buffer encoding, enough to build a synthetic profile.
func pbVarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func pbInt(b []byte, field int, v uint64) []byte {
	return pbVarint(pbVarint(b, uint64(field)<<3), v)
}

func pbBytes(b []byte, field int, payload []byte) []byte {
	b = pbVarint(b, uint64(field)<<3|2)
	return append(pbVarint(b, uint64(len(payload))), payload...)
}

func pbPacked(b []byte, field int, vs ...uint64) []byte {
	var p []byte
	for _, v := range vs {
		p = pbVarint(p, v)
	}
	return pbBytes(b, field, p)
}

func TestParseSyntheticProfile(t *testing.T) {
	var p []byte
	for _, s := range []string{"", "adhocsim/internal/sim.(*Exec).prep", "/src/internal/sim/exec.go", "runtime.mallocgc", "runtime/malloc.go"} {
		p = pbBytes(p, profStrings, []byte(s))
	}
	p = pbBytes(p, profFunction, pbInt(pbInt(pbInt(nil, functionID, 1), functionName, 1), functionFile, 2))
	p = pbBytes(p, profFunction, pbInt(pbInt(pbInt(nil, functionID, 2), functionName, 3), functionFile, 4))
	line := func(fn uint64) []byte { return pbInt(nil, lineFunction, fn) }
	p = pbBytes(p, profLocation, pbBytes(pbInt(nil, locationID, 1), locationLine, line(1)))
	// Location 2 inlines mallocgc (innermost line first) into prep.
	p = pbBytes(p, profLocation, pbBytes(pbBytes(pbInt(nil, locationID, 2), locationLine, line(2)), locationLine, line(1)))
	// One sample with packed fields, one with unpacked ones, as the
	// encoder writes short repeated fields.
	p = pbBytes(p, profSample, pbPacked(pbPacked(nil, sampleLocation, 1), sampleValue, 1, 10_000_000))
	p = pbBytes(p, profSample, pbInt(pbInt(pbInt(nil, sampleLocation, 2), sampleValue, 3), sampleValue, 30_000_000))

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	samples, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 || len(samples[0].stack) != 1 || len(samples[1].stack) != 2 ||
		samples[1].stack[0].fn != "runtime.mallocgc" || samples[1].stack[1].file != "/src/internal/sim/exec.go" {
		t.Fatalf("decoded %+v", samples)
	}
	shares := cpuShares(samples)
	if shares["exec"] != 0.25 || shares["alloc"] != 0.75 || shares["sim"] != 0 {
		t.Errorf("shares exec %v alloc %v sim %v, want 0.25 0.75 0", shares["exec"], shares["alloc"], shares["sim"])
	}
	if _, err := parseProfile(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

func TestParseVmHWM(t *testing.T) {
	got, err := parseVmHWM([]byte("Name:\tperfbench\nVmPeak:\t  9000 kB\nVmHWM:\t    1832 kB\n"))
	if err != nil || got != 1832*1024 {
		t.Errorf("parseVmHWM = %d, %v; want %d", got, err, 1832*1024)
	}
	if _, err := parseVmHWM([]byte("Name:\tx\n")); err == nil {
		t.Error("missing VmHWM line parsed without error")
	}
}

// TestBenchmarkJSONListsReportedMetrics keeps BENCHMARK.json's metric
// lists and the metrics the benchmark reports in step.
func TestBenchmarkJSONListsReportedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", b.EndToEnd, endToEndMetrics}, {"per_layer", b.PerLayer, perLayerMetrics}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", c.name, len(c.json), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.json[i].Name != d.name || c.json[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)",
					c.name, i, c.json[i].Name, c.json[i].Unit, d.name, d.unit)
			}
		}
	}
}
