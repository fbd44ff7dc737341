package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"syscall"
	"time"

	"adhocsim/internal/scenario"
)

// probe is a point-in-time reading of the process's wall clock, CPU time
// and cumulative heap allocation.
type probe struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func takeProbe() probe {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	metrics.Read(allocSample)
	return probe{
		wall:  time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: allocSample[0].Value.Uint64(),
	}
}

// repSample is one replication's cost, as the difference between the
// probes taken when it started and when it finished.
type repSample struct {
	seed  int     // seed index within the sweep
	wall  float64 // ns
	cpu   float64 // ns, user+sys of the whole process
	alloc float64 // bytes
}

// timedSweep runs one scenario.Replicate sweep of spec over seeds seeds
// with a single replication worker, timing each replication through the
// progress callback, which runner calls on this goroutine right after
// each replication finishes.
func timedSweep(spec scenario.Spec, seeds int) (sum scenario.Summary, samples []repSample, err error) {
	prev := takeProbe()
	progress := func(done, _ int) {
		p := takeProbe()
		samples = append(samples, repSample{
			seed:  done - 1,
			wall:  float64(p.wall.Sub(prev.wall)),
			cpu:   float64(p.cpu - prev.cpu),
			alloc: float64(p.alloc - prev.alloc),
		})
		prev = p
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("replicate %s panicked: %v", spec.Name, r)
		}
	}()
	sum, err = scenario.Replicate(spec, seeds, 1, progress)
	return sum, samples, err
}

// panel is one spec's measurements within a run.
type panel struct {
	spec    scenario.Spec
	ref     reference
	setupNs []float64 // scenario.Build wall times of the spec itself
	samples []repSample
}

// setupSamples times Builds of the spec itself. For sequential specs the
// reference pass already did exactly that; a parallel spec's Build
// (grid fit, region schedulers) is timed separately.
func setupSamples(spec scenario.Spec, ref reference, builds int) ([]float64, error) {
	if spec.Parallel == nil {
		return ref.buildNs, nil
	}
	var out []float64
	for i := 0; i < builds; i++ {
		t0 := time.Now()
		if _, err := scenario.Build(spec); err != nil {
			return nil, fmt.Errorf("build %s: %w", spec.Name, err)
		}
		out = append(out, float64(time.Since(t0)))
	}
	return out, nil
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// endToEnd folds the panels' samples into the end-to-end metrics.
//
// The seeds are the workload's inputs and their work differs by up to
// 2x (a starved session, a denser neighbourhood), while the host slows
// down in bursts of seconds. So every replication's cost is divided by
// its seed's logical events, the median of those rates is taken (robust
// to bursts and to the one Build a sequential sweep pays in its first
// replication), and the rate is scaled back by the mean logical events
// of the run's seeds, which is an exact count. A workload with several
// panels reports one replication of the whole matrix: the sum over
// panels. ns_per_logical_event is that sum over the panels' logical
// events.
func endToEnd(panels []panel) map[string]float64 {
	var setup, rep, cpu, alloc, logical float64
	for _, p := range panels {
		perEvent := func(pick func(repSample) float64) float64 {
			var r []float64
			for _, s := range p.samples {
				r = append(r, ratio(pick(s), p.ref.logical[s.seed]))
			}
			return median(r)
		}
		l := mean(p.ref.logical)
		setup += median(p.setupNs)
		rep += perEvent(func(s repSample) float64 { return s.wall }) * l
		cpu += perEvent(func(s repSample) float64 { return s.cpu }) * l
		alloc += perEvent(func(s repSample) float64 { return s.alloc }) * l
		logical += l
	}
	return map[string]float64{
		"setup_s":              setup / 1e9,
		"rep_ms":               rep / 1e6,
		"ns_per_logical_event": ratio(rep, logical),
		"cpu_ms_per_rep":       cpu / 1e6,
		"alloc_mb_per_rep":     alloc / 1e6,
	}
}

// writeSamples saves every panel's raw replication samples and logical
// event counts as <workload>-seed<seed>-samples.json in dir, so a run's
// figures can be re-derived or compared sample by sample later.
func writeSamples(dir, workload string, seed uint64, panels []panel) error {
	type sample struct {
		Seed   int     `json:"seed"`
		WallNs float64 `json:"wall_ns"`
		CPUNs  float64 `json:"cpu_ns"`
		AllocB float64 `json:"alloc_bytes"`
	}
	type out struct {
		Panel   string    `json:"panel"`
		Logical []float64 `json:"logical"`
		SetupNs []float64 `json:"setup_ns"`
		Samples []sample  `json:"samples"`
	}
	var all []out
	for _, p := range panels {
		o := out{Panel: p.spec.Name, Logical: p.ref.logical, SetupNs: p.setupNs}
		for _, s := range p.samples {
			o.Samples = append(o.Samples, sample{s.seed, s.wall, s.cpu, s.alloc})
		}
		all = append(all, o)
	}
	data, err := json.Marshal(all)
	if err != nil {
		return fmt.Errorf("samples: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("samples: %w", err)
	}
	name := filepath.Join(dir, fmt.Sprintf("%s-seed%d-samples.json", workload, seed))
	if err := os.WriteFile(name, data, 0o644); err != nil {
		return fmt.Errorf("samples: %w", err)
	}
	return nil
}
