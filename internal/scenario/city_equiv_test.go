package scenario

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"adhocsim/internal/phy"
)

// The city-scale equivalence suite: every fast path the 16k/100k tier
// can run on — the calendar queue, the hierarchical spatial index, the
// incremental interference sums — must be bit-identical to its
// reference implementation on the city presets themselves, not just on
// the small unit fixtures. The presets are far too large for the
// full-horizon preset sweeps (parallel_equiv_test.go skips N > 2048),
// so the toggle matrix runs here at a short horizon instead.

// cityShortSpec returns the named city preset with its horizon cut to
// something a test can afford — the toggle equivalences care about
// event-order agreement, not steady-state throughput.
func cityShortSpec(t *testing.T, name string, horizon time.Duration) Spec {
	t.Helper()
	spec, err := Preset(name)
	if err != nil {
		t.Fatal(err)
	}
	spec.Duration = Duration(horizon)
	return spec
}

// TestRandom16kKernelToggles runs random-16k once per kernel toggle and
// requires the result JSON byte-identical to the preset's own
// configuration (4-ary heap, hierarchical index, incremental sums):
//
//   - calendar-vs-heap: the spec's "scheduler" block switched to the
//     calendar queue;
//   - hierarchy-vs-flat: phy.SetHierarchy(false) forces every CellIndex
//     query down the flat fine-grid reference path;
//   - incremental-vs-recomputed: Medium.SetIncremental(false) forces
//     CCA, the interference floor and the lock-time interference record
//     back to their per-edge recomputation loops.
func TestRandom16kKernelToggles(t *testing.T) {
	if testing.Short() {
		t.Skip("city-scale preset run: skipped in -short")
	}
	spec := cityShortSpec(t, "random-16k", 50*time.Millisecond)
	base := runJSON(t, spec)

	t.Run("calendar-vs-heap", func(t *testing.T) {
		s := spec
		s.Scheduler = "calendar"
		if got := runJSON(t, s); !bytes.Equal(base, got) {
			t.Errorf("random-16k: calendar-backend result differs from heap")
		}
	})

	t.Run("hierarchy-vs-flat", func(t *testing.T) {
		phy.SetHierarchy(false)
		defer phy.SetHierarchy(true)
		if got := runJSON(t, spec); !bytes.Equal(base, got) {
			t.Errorf("random-16k: flat-index result differs from hierarchical")
		}
	})

	t.Run("incremental-vs-recomputed", func(t *testing.T) {
		inst, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		inst.Net.Medium.SetIncremental(false)
		horizon := inst.Spec.Duration.D()
		inst.Net.Run(horizon)
		got, err := json.Marshal(inst.Collect(horizon))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(base, got) {
			t.Errorf("random-16k: recomputed-interference result differs from incremental")
		}
	})
}

// TestRandom16kParallelToggles extends the city toggle matrix with the
// parallel-kernel axes: both partitioners crossed with both scheduler
// backends, each run on the space-partitioned kernel and required
// byte-identical to the sequential kernel under the same backend. The
// 16k field auto-fits an 8x8 grid, so this is the first multi-region
// equivalence check at city scale — the preset sweeps cap at 2048
// stations.
func TestRandom16kParallelToggles(t *testing.T) {
	if testing.Short() {
		t.Skip("city-scale preset run: skipped in -short")
	}
	spec := cityShortSpec(t, "random-16k", 50*time.Millisecond)
	for _, sched := range []string{"calendar", "heap"} {
		s := spec
		s.Scheduler = sched
		seq := runJSON(t, s)
		for _, part := range []string{PartitionerBalanced, PartitionerUniform} {
			t.Run(part+"-"+sched, func(t *testing.T) {
				p := s
				p.Parallel = &ParallelParams{Partitioner: part}
				if got := runJSON(t, p); !bytes.Equal(seq, got) {
					t.Errorf("random-16k: parallel (%s partitioner, %s backend) differs from sequential", part, sched)
				}
			})
		}
	}
}

// TestClusteredBlocks100kEndToEnd builds and runs the 100k preset at a
// short horizon: construction completes, the run fires events, and the
// paced flows actually deliver — each block's nearest-neighbor pair is
// a live link, not a stranded one.
func TestClusteredBlocks100kEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("city-scale preset run: skipped in -short")
	}
	spec := cityShortSpec(t, "clustered-blocks-100k", 100*time.Millisecond)
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) != len(spec.Flows) {
		t.Fatalf("got %d flow results, want %d", len(res.Flows), len(spec.Flows))
	}
	delivered := 0
	for _, f := range res.Flows {
		if f.GoodputKbps > 0 {
			delivered++
		}
	}
	if delivered < len(res.Flows) {
		t.Errorf("only %d/%d flows delivered within %v", delivered, len(res.Flows), spec.Duration.D())
	}
}

// TestRandom16kBuildBudget pins the satellite fix that made the city
// tier possible at all: constructing a 16384-station network must cost
// seconds, not the minutes the old O(stations²) neighbor wiring and
// linear nearest-destination scans would take. The budget is generous —
// it guards against an accidental return of a quadratic build step, not
// against a slow machine.
func TestRandom16kBuildBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("city-scale preset build: skipped in -short")
	}
	spec, err := Preset("random-16k")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := Build(spec); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("Build(random-16k) took %v; a quadratic construction step is back", elapsed)
	}
}

// TestNearestDstIndexedMatchesBrute pins the indexed nearest-neighbor
// resolver against the reference linear scan on a field large enough to
// take the indexed path: every resolved destination identical,
// including equidistant ties (the growing-radius probe breaks ties
// toward the lowest index, exactly like the scan).
func TestNearestDstIndexedMatchesBrute(t *testing.T) {
	topo := Topology{Kind: KindRandomUniform, N: 4 * nearestIndexMin, Width: 8000, Height: 8000}
	positions, err := topo.Expand(1234)
	if err != nil {
		t.Fatal(err)
	}
	var flows []Flow
	for i := 0; i < 64; i++ {
		flows = append(flows, Flow{
			Src:        i * len(positions) / 64,
			NearestDst: true,
			Transport:  TransportUDP,
			PacketSize: 256,
			Interval:   Duration(time.Second),
			Port:       uint16(9000 + i),
		})
	}
	indexed, err := resolveFlows(flows, positions)
	if err != nil {
		t.Fatal(err)
	}
	nearestBruteOnly = true
	defer func() { nearestBruteOnly = false }()
	brute, err := resolveFlows(flows, positions)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(indexed, brute) {
		for i := range indexed {
			if indexed[i].Dst != brute[i].Dst {
				t.Errorf("flow %d (src %d): indexed dst %d, brute dst %d",
					i, flows[i].Src, indexed[i].Dst, brute[i].Dst)
			}
		}
	}
}
