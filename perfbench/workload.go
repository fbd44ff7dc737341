package main

import (
	"fmt"
	"runtime"

	"adhocsim/internal/runner"
	"adhocsim/internal/scenario"
)

// workload is one named benchmark input: the specs it replicates (one
// per panel) and how many seeds one sweep of each panel covers. The
// reference pass runs every one of those seeds once (see reference).
type workload struct {
	name  string
	seeds int
	specs func(root uint64) ([]scenario.Spec, error)
}

// workloads are the benchmark's inputs. Each exists to load a different
// set of layers (README.md gives the full reasoning):
//
//   - paper-fig7: the paper's Figs. 6-7 matrix, where MAC and TCP do
//     most of the work on a 4-station medium;
//   - mesh-churn: the only workload where forwarding, DSDV routing and
//     the fault engine do real work;
//   - city-100k: a 100k-station event population on the sequential
//     kernel, one Build then a Reset per seed;
//   - city-16k-parallel: the region executor, with a full Build per seed.
var workloads = []workload{
	{name: "paper-fig7", seeds: 24, specs: paperFig7},
	{name: "mesh-churn", seeds: 12, specs: preset("churn-mesh-5x5")},
	{name: "city-100k", seeds: 4, specs: preset("clustered-blocks-100k")},
	{name: "city-16k-parallel", seeds: 3, specs: city16kParallel},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// preset returns a one-panel workload on the named library preset,
// rooted at the benchmark seed.
func preset(name string) func(uint64) ([]scenario.Spec, error) {
	return func(root uint64) ([]scenario.Spec, error) {
		s, err := scenario.Preset(name)
		if err != nil {
			return nil, err
		}
		s.Seed = root
		return []scenario.Spec{s}, nil
	}
}

// city16kFields is how many random-16k fields city-16k-parallel runs.
const city16kFields = 4

// city16kParallel is the random-16k preset on the region executor,
// region workers = nproc and (through Replicate's worker count of 1)
// one replication worker, so the plan never oversubscribes.
//
// The parallel kernel's cost is set by the field's geometry: the
// lookahead between regions fixes the window count, which ranges from
// 4k to 75k over random-16k's topology draws (18x), while a fixed field
// varies by about 10% across seeds. A run over a few fresh draws would
// therefore measure which fields it drew. Instead every run uses the
// same fields, the first city16kFields draws of the preset's own
// default-seed stream frozen as explicit topologies, one panel each;
// the benchmark seed drives everything else (shadowing, backoff,
// traffic), as in every other workload.
func city16kParallel(root uint64) ([]scenario.Spec, error) {
	base, err := scenario.Preset("random-16k")
	if err != nil {
		return nil, err
	}
	specs := make([]scenario.Spec, 0, city16kFields)
	for k := 0; k < city16kFields; k++ {
		positions, err := base.Topology.Expand(runner.SeedFor(base.Seed, k))
		if err != nil {
			return nil, err
		}
		s := base
		s.Name = fmt.Sprintf("%s/field-%d", base.Name, k)
		s.Seed = root
		s.Topology = scenario.Topology{Kind: scenario.KindExplicit, Positions: make([][2]float64, len(positions))}
		for i, p := range positions {
			s.Topology.Positions[i] = [2]float64{p.X, p.Y}
		}
		s.Parallel = &scenario.ParallelParams{Workers: runtime.NumCPU()}
		specs = append(specs, s)
	}
	return specs, nil
}

// paperFig7 is the paper's Figs. 6-7 matrix: the paper-four-node line
// (25/82.5/25 m, 11 Mbit/s, testbed profile, two saturating sessions)
// under {UDP, TCP} x {basic access, RTS/CTS}.
func paperFig7(root uint64) ([]scenario.Spec, error) {
	base, err := scenario.Preset("paper-four-node")
	if err != nil {
		return nil, err
	}
	var specs []scenario.Spec
	for _, tr := range []scenario.Transport{scenario.TransportUDP, scenario.TransportTCP} {
		for _, rts := range []bool{false, true} {
			s := base
			s.Seed = root
			s.MAC.RTSCTS = rts
			s.Flows = append([]scenario.Flow(nil), base.Flows...)
			for i := range s.Flows {
				s.Flows[i].Transport = tr
			}
			access := "basic"
			if rts {
				access = "rtscts"
			}
			s.Name = fmt.Sprintf("%s/%s-%s", base.Name, tr, access)
			specs = append(specs, s)
		}
	}
	return specs, nil
}
