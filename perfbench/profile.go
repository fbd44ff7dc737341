package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// A CPU profile as runtime/pprof writes it is a gzipped protocol
// buffer (github.com/google/pprof/proto/profile.proto). The benchmark
// needs only each sample's stack and CPU time, so it decodes those few
// fields itself rather than depend on the pprof module.

// frame is one (possibly inlined) function on a sample's stack.
type frame struct {
	fn, file string
}

// cpuSample is one profile sample: its stack, leaf first, and the CPU
// nanoseconds it stands for.
type cpuSample struct {
	stack []frame
	ns    int64
}

// Field numbers of profile.proto.
const (
	profSample   = 2
	profLocation = 4
	profFunction = 5
	profStrings  = 6

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
	functionFile = 4
)

// parseProfile decodes a gzipped pprof CPU profile.
func parseProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type function struct{ name, file int64 }
	var (
		strs      []string
		funcs     = map[uint64]function{}
		locs      = map[uint64][]uint64{} // location id -> function ids, innermost first
		rawSample [][]byte
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case profStrings:
			strs = append(strs, string(b))
		case profSample:
			rawSample = append(rawSample, b)
		case profFunction:
			var f function
			var id uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					f.name = int64(v)
				case functionFile:
					f.file = int64(v)
				}
				return nil
			})
			funcs[id] = f
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	samples := make([]cpuSample, 0, len(rawSample))
	for _, b := range rawSample {
		var locIDs, values []uint64
		err := fields(b, func(num int, v uint64, b []byte) error {
			var dst *[]uint64
			switch num {
			case sampleLocation:
				dst = &locIDs
			case sampleValue:
				dst = &values
			default:
				return nil
			}
			if b == nil {
				*dst = append(*dst, v)
				return nil
			}
			return packed(b, dst)
		})
		if err != nil {
			return nil, err
		}
		s := cpuSample{}
		if len(values) > 0 {
			// CPU profiles carry [samples, cpu nanoseconds].
			s.ns = int64(values[len(values)-1])
		}
		for _, id := range locIDs {
			for _, fid := range locs[id] {
				f := funcs[fid]
				s.stack = append(s.stack, frame{fn: str(f.name), file: str(f.file)})
			}
		}
		samples = append(samples, s)
	}
	return samples, nil
}

var errTruncated = errors.New("profile: truncated protocol buffer")

// fields walks the top-level fields of one protocol-buffer message,
// calling fn with each field number and its varint value (b nil) or its
// length-delimited bytes (b non-nil). Fixed-width fields are skipped.
func fields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", key&7)
		}
	}
	return nil
}

// packed appends the varints of a packed repeated field to dst.
func packed(b []byte, dst *[]uint64) error {
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, v)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// Layers a CPU sample can be charged to, in report order. "other" is
// everything outside the simulator: the benchmark itself, the Go
// scheduler, and idle runtime work.
var cpuLayers = []string{
	"scenario", "sim", "exec", "medium", "phy", "mac", "transport", "app",
	"network", "routing", "faults", "runner", "obs", "node", "frame",
	"gc", "alloc", "other",
}

// layerOf charges a sample to a layer. It walks the stack from the
// leaf: garbage-collector work is "gc" and the allocator is "alloc"
// wherever they were entered from; otherwise the first simulator frame
// names the layer by its package, so runtime and math helpers count
// toward the simulator code that called them. Inside internal/sim the
// source file decides: exec.go is the parallel executor, the rest
// (scheduler.go, calendar.go, rng.go) the scheduler.
func layerOf(stack []frame) string {
	for _, f := range stack {
		switch {
		case isGC(f.fn):
			return "gc"
		case isAlloc(f.fn):
			return "alloc"
		}
		if l := packageLayer(f); l != "" {
			return l
		}
	}
	return "other"
}

var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.gcAssistAlloc", "runtime.scanobject",
	"runtime.scanblock", "runtime.scanstack", "runtime.markroot", "runtime.greyobject",
	"runtime.wbBufFlush", "runtime.bgsweep", "runtime.sweepone", "runtime.(*sweepLocked).sweep",
	"runtime.(*mspan).sweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone",
	"runtime.gcMarkTermination", "runtime.gcBgMarkStartWorkers",
}

func isGC(fn string) bool {
	for _, p := range gcFrames {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

func isAlloc(fn string) bool {
	for _, p := range []string{"runtime.mallocgc", "runtime.newobject", "runtime.growslice", "runtime.makeslice", "runtime.makemap"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// packageLayer maps a simulator frame to its layer, or "" for a frame
// outside the adhocsim module's internal packages.
func packageLayer(f frame) string {
	name := f.fn
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // generic instantiation: the shape may name other packages
	}
	rest, ok := strings.CutPrefix(name, "adhocsim/internal/")
	if !ok {
		return ""
	}
	pkg, _, _ := strings.Cut(rest, ".")
	if pkg == "sim" {
		if path.Base(f.file) == "exec.go" {
			return "exec"
		}
		return "sim"
	}
	for _, l := range cpuLayers {
		if l == pkg {
			return l
		}
	}
	return "other"
}

// cpuShares charges every sample to its layer and returns each layer's
// share of the profiled CPU time.
func cpuShares(samples []cpuSample) map[string]float64 {
	per := map[string]float64{}
	var total float64
	for _, s := range samples {
		per[layerOf(s.stack)] += float64(s.ns)
		total += float64(s.ns)
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l] = ratio(per[l], total)
	}
	return shares
}
