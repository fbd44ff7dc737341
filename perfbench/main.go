// Command perfbench is the adhocsim benchmark. It runs one named
// workload from a seed, checks every timed replication against a fresh
// sequential reference run of the same seed, and prints its metrics by
// name and unit, ending with one JSON line:
//
//	python3 perfbench/run.py --workload city-100k --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of timed
// scenario.Replicate sweeps; with --trace 1 it drives the scenario
// layer directly, records a span around every call, profiles the CPU
// and reports per-layer metrics instead. README.md documents every
// metric, workload and the bounds in BENCHMARK.json.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"adhocsim/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// options are the benchmark's command-line arguments.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

// outDir receives the traced run's spans and CPU profile and the
// untraced run's raw samples; it sits in the build directory run.py
// uses, which version control ignores.
const outDir = ".bench_build/trace"

func parseOptions(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Uint64Var(&o.seed, "seed", 1, "root seed; replication i runs runner.SeedFor(seed, i)")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long the timed sweeps run")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive, got %g", o.seconds)
	}
	o.trace = trace == 1
	return o, nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object the benchmark prints as its last line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout io.Writer) error {
	o, err := parseOptions(args)
	if err != nil {
		return err
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	specs, err := w.specs(o.seed)
	if err != nil {
		return err
	}
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	if err := checkPlan(out, w, specs); err != nil {
		return err
	}
	anchorStart := anchorMs()

	panels := make([]panel, len(specs))
	for i, spec := range specs {
		ref, err := runReference(spec, w.seeds)
		if err != nil {
			return err
		}
		panels[i] = panel{spec: spec, ref: ref}
		if !o.trace {
			if panels[i].setupNs, err = setupSamples(spec, ref, 3); err != nil {
				return err
			}
		}
	}

	var values map[string]float64
	var t tally
	profileSamples := 0
	if o.trace {
		tr := &tracer{epoch: time.Now()}
		values, t, profileSamples, err = traced(w, panels, tr)
		if err != nil {
			return err
		}
		if err := tr.write(outDir, w.name, o.seed); err != nil {
			return err
		}
	} else {
		t = measure(panels, w.seeds, time.Duration(o.seconds*float64(time.Second)))
		values = endToEnd(panels)
		rss, err := peakRSSBytes()
		if err != nil {
			return err
		}
		values["peak_rss_mb"] = float64(rss) / 1e6
		printPanels(out, panels)
		if err := writeSamples(outDir, w.name, o.seed, panels); err != nil {
			return err
		}
	}
	anchorEnd := anchorMs()
	fmt.Fprintf(out, "host.anchor_ms start %.3f end %.3f (fixed pure-Go loop; diagnostic, not gated)\n", anchorStart, anchorEnd)

	defs := endToEndMetrics
	var notes []string
	if o.trace {
		values["host.anchor_ms"] = (anchorStart + anchorEnd) / 2
		defs = perLayerMetrics
		notes = zeroNotes(panels, values, profileSamples)
	}
	rep := report{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		rep.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
		fmt.Fprintf(out, "%-32s %14.6g %s\n", d.name, values[d.name], d.unit)
	}
	fmt.Fprintf(out, "%-32s %14.6g ratio (%d/%d replications errored, panicked or differ from the reference)\n",
		"failed_ratio", t.failedRatio(), t.failed, t.attempted)
	if anyParallel(panels) {
		fmt.Fprintf(out, "%-32s %14.6g ratio (%d/%d replications differ from the sequential kernel's result: "+
			"the parallel kernel's same-instant tie order, ROADMAP item 4)\n",
			"seq_mismatch_ratio", ratio(float64(t.mismatched), float64(t.attempted)), t.mismatched, t.attempted)
	}
	for _, n := range notes {
		fmt.Fprintln(out, "note:", n)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	return nil
}

// checkPlan prints the execution plan each panel's sweep will use and
// refuses one that runs more busy goroutines than there are CPUs:
// oversubscribed runs measure the host's scheduler, not the simulator.
func checkPlan(out io.Writer, w workload, specs []scenario.Spec) error {
	nproc := runtime.NumCPU()
	for _, spec := range specs {
		es, err := scenario.PlanExec(spec, w.seeds, 1)
		if err != nil {
			return fmt.Errorf("plan %s: %w", spec.Name, err)
		}
		if es == nil {
			fmt.Fprintf(out, "plan %s: sequential kernel, 1 replication worker, %d seeds per sweep, nproc %d\n",
				spec.Name, w.seeds, nproc)
			continue
		}
		fmt.Fprintf(out, "plan %s: %s, %d seeds per sweep, nproc %d\n", spec.Name, es.Plan(), w.seeds, nproc)
		if es.ReplicationWorkers*es.RegionWorkers > nproc {
			return fmt.Errorf("plan %s oversubscribes: %d replication x %d region workers > %d CPUs",
				spec.Name, es.ReplicationWorkers, es.RegionWorkers, nproc)
		}
	}
	return nil
}

// measure runs rounds of timed sweeps, one sweep per panel, for about
// the measuring time: it stops when another round would end further
// past the budget than stopping now falls short of it (at least one
// round). Rounding to the nearest count keeps the number of rounds, and
// so the samples per run, the same across runs on a drifting host.
func measure(panels []panel, seeds int, budget time.Duration) tally {
	var t tally
	start := time.Now()
	for {
		roundStart := time.Now()
		for i := range panels {
			p := &panels[i]
			// Each sweep starts from a collected heap, as in a process
			// that runs one sweep: the previous sweep's arena is garbage,
			// and left uncollected it would inflate this sweep's GC work
			// and the heap goal that sets peak memory.
			runtime.GC()
			sum, samples, err := timedSweep(p.spec, seeds)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				t.add(tally{attempted: seeds, failed: seeds})
				continue
			}
			p.samples = append(p.samples, samples...)
			t.add(checkSweep(p.spec, sum, p.ref))
		}
		if time.Since(start)+time.Since(roundStart)/2 > budget {
			return t
		}
	}
}

func printPanels(out io.Writer, panels []panel) {
	for _, p := range panels {
		var wall []float64
		for _, s := range p.samples {
			wall = append(wall, s.wall/1e6)
		}
		q1, q2, q3 := quartiles(wall)
		fmt.Fprintf(out, "panel %s: rep_ms median %.3f q1 %.3f q3 %.3f (n=%d); setup median %.3f ms (n=%d); logical events median %.0f\n",
			p.spec.Name, q2, q1, q3, len(wall), median(p.setupNs)/1e6, len(p.setupNs), median(p.ref.logical))
	}
}

func anyParallel(panels []panel) bool {
	for _, p := range panels {
		if p.spec.Parallel != nil {
			return true
		}
	}
	return false
}

var anchorSink float64

// anchorMs times a fixed pure-Go loop, so every result carries a
// reading of the host's speed at the time it was taken.
func anchorMs() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	var acc float64
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += float64(x>>11) * 0x1p-53
	}
	anchorSink = acc
	return float64(time.Since(t0)) / 1e6
}

// peakRSSBytes reads the process's peak resident set size (VmHWM).
func peakRSSBytes() (uint64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return parseVmHWM(data)
}

func parseVmHWM(status []byte) (uint64, error) {
	for _, line := range bytes.Split(status, []byte("\n")) {
		rest, ok := strings.CutPrefix(string(line), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("peak RSS: parse %q: %w", line, err)
		}
		return kb * 1024, nil
	}
	return 0, errors.New("peak RSS: no VmHWM line in /proc/self/status")
}
