package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"adhocsim/internal/runner"
	"adhocsim/internal/scenario"
)

// reference is the untimed warm-up pass over one panel: a fresh Build,
// Run and Collect for every seed Replicate will use
// (runner.SeedFor(root, i)). results are what the timed replications
// must reproduce byte for byte. For a sequential spec they come from the
// sequential kernel. For a parallel spec they come from the executor's
// single-goroutine reference path, which the executor guarantees to
// match for any worker count; the sequential kernel's results are kept
// beside them in seqResults, where a difference is the parallel
// kernel's known same-instant tie-order defect (ROADMAP item 4),
// reported as seq_mismatch_ratio. The sequential run also gives the
// logical-event counts, the denominator of ns_per_logical_event.
type reference struct {
	results    []scenario.Result
	seqResults []scenario.Result
	logical    []float64
	buildNs    []float64 // sequential scenario.Build wall time per seed
	runNs      []float64 // whole sequential replication (Build+Run+Collect) per seed
}

// runReference runs the reference pass for spec over seeds seeds.
func runReference(spec scenario.Spec, seeds int) (ref reference, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("reference run of %s panicked: %v", spec.Name, r)
		}
	}()
	for i := 0; i < seeds; i++ {
		s := spec
		s.Seed = runner.SeedFor(spec.Seed, i)
		s.Parallel = nil
		t0 := time.Now()
		inst, err := scenario.Build(s)
		if err != nil {
			return ref, fmt.Errorf("reference build of %s seed %d: %w", spec.Name, s.Seed, err)
		}
		t1 := time.Now()
		horizon := inst.Spec.Duration.D()
		inst.Net.Run(horizon)
		res := inst.Collect(horizon)
		t2 := time.Now()
		ref.seqResults = append(ref.seqResults, res)
		ref.logical = append(ref.logical, float64(logicalEvents(inst)))
		ref.buildNs = append(ref.buildNs, float64(t1.Sub(t0)))
		ref.runNs = append(ref.runNs, float64(t2.Sub(t0)))
		if spec.Parallel != nil {
			par := *spec.Parallel
			par.Sequential = true
			s.Parallel = &par
			if res, err = scenario.Run(s); err != nil {
				return ref, fmt.Errorf("reference run of %s seed %d: %w", spec.Name, s.Seed, err)
			}
		}
		ref.results = append(ref.results, res)
		// Drop this seed's networks before the next is built, so peak
		// memory reflects one instance, not whenever the GC caught up.
		inst = nil
		runtime.GC()
	}
	return ref, nil
}

// logicalEvents is the benchmark's one definition of the work a
// replication does, independent of the kernel that ran it: every fired
// scheduler event, minus the two pooled batch actions the medium
// schedules per transmission, plus the two per-receiver arrival edges
// (start and end) those batches stand for. Each arrival edge settles
// into exactly one radio verdict counter (decoded, errored or missed),
// so the verdict sum counts the edges. It must be read from a
// sequential-kernel instance: the parallel executor fires extra
// cross-region delivery events that are bookkeeping, not work.
func logicalEvents(inst *scenario.Instance) uint64 {
	var edges uint64
	for _, st := range inst.Net.Stations {
		edges += st.Radio.FramesDecoded + st.Radio.FramesErrored + st.Radio.FramesMissed
	}
	return inst.Net.Fired() - 2*inst.Net.Medium.Transmissions + 2*edges
}

// tally counts replications by outcome.
type tally struct {
	attempted, failed, mismatched int
}

func (t *tally) add(u tally) {
	t.attempted += u.attempted
	t.failed += u.failed
	t.mismatched += u.mismatched
}

// failedRatio is failed replications over attempted ones.
func (t tally) failedRatio() float64 { return ratio(float64(t.failed), float64(t.attempted)) }

// checkRuns scores replications against their references: one fails
// when its result is not byte-identical to the reference of its seed.
// On the parallel kernel, one that differs from the sequential kernel's
// result counts as mismatched.
func checkRuns(runs []scenario.Result, ref reference, parallel bool) tally {
	t := tally{attempted: len(runs)}
	for i, got := range runs {
		if i >= len(ref.results) || !reflect.DeepEqual(ref.results[i], got) {
			t.failed++
		}
		if parallel && (i >= len(ref.seqResults) || !reflect.DeepEqual(ref.seqResults[i], got)) {
			t.mismatched++
		}
	}
	return t
}

// checkSweep scores a timed sweep: its Summary, minus the exec-plan
// block, must equal SummarizeRuns over the references, and each
// replication is checked on its own. A summary the per-run checks
// cannot explain fails the whole sweep.
func checkSweep(spec scenario.Spec, sum scenario.Summary, ref reference) tally {
	t := checkRuns(sum.Runs, ref, spec.Parallel != nil)
	if t.failed == 0 && len(sum.Runs) == len(ref.results) {
		want := scenario.SummarizeRuns(spec, ref.results)
		sum.Exec = nil
		if !reflect.DeepEqual(want, sum) {
			t.failed = t.attempted
		}
	}
	return t
}
