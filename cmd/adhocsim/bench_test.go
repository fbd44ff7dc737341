package main

import (
	"testing"
	"time"

	"adhocsim/internal/scenario"
)

// TestBenchLegCountsLogicalEvents pins the -bench-json denominator to
// scenario.LogicalEvents: the sequential leg counts the run it timed,
// and the parallel leg reports the same spec's sequential count rather
// than its own Fired total, which includes executor bookkeeping.
func TestBenchLegCountsLogicalEvents(t *testing.T) {
	short := func(name string, d time.Duration) scenario.Spec {
		t.Helper()
		spec, err := scenario.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		spec.Duration = scenario.Duration(d)
		return spec
	}

	seq := short("hidden-terminal", 200*time.Millisecond)
	leg, parallel, err := benchScenario(seq, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := scenario.Build(seq)
	if err != nil {
		t.Fatal(err)
	}
	inst.Net.Run(inst.Spec.Duration.D())
	want := scenario.LogicalEvents(inst)
	if parallel || leg.LogicalEventsPerRun != want || want == 0 {
		t.Fatalf("sequential leg: parallel=%v logical_events_per_run=%d, want false and %d (Fired %d)",
			parallel, leg.LogicalEventsPerRun, want, inst.Net.Fired())
	}

	par := short("random-1024", 20*time.Millisecond)
	par.Parallel = &scenario.ParallelParams{Workers: 2}
	leg, parallel, err = benchScenario(par, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err = scenario.SequentialLogicalEvents(par)
	if err != nil {
		t.Fatal(err)
	}
	if !parallel || leg.LogicalEventsPerRun != want {
		t.Fatalf("parallel leg: parallel=%v logical_events_per_run=%d, want true and %d",
			parallel, leg.LogicalEventsPerRun, want)
	}
}
