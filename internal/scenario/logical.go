package scenario

// LogicalEvents returns the logical event count of the replication inst
// has just run: the work one replication does, independent of how the
// kernel batches it. It is every fired scheduler event, minus the two
// pooled batch actions the medium schedules per transmission, plus the
// two per-receiver arrival edges (start and end) those batches stand
// for. Each arrival edge settles into exactly one radio verdict counter
// (decoded, errored or missed), so the verdict sum counts the edges;
// only edges still in flight at the horizon are missed. On random-1024
// the formula reproduces the pre-batching kernel's event stream
// (BENCH_PR4.json, 3,695,669 events) to within 16 events.
//
// inst must have run on the sequential kernel: the parallel executor
// fires extra cross-region delivery events that are bookkeeping, not
// work. For a parallel spec use SequentialLogicalEvents.
func LogicalEvents(inst *Instance) uint64 {
	var edges uint64
	for _, st := range inst.Net.Stations {
		edges += st.Radio.FramesDecoded + st.Radio.FramesErrored + st.Radio.FramesMissed
	}
	return inst.Net.Fired() - 2*inst.Net.Medium.Transmissions + 2*edges
}

// SequentialLogicalEvents builds spec on the sequential kernel, runs it
// to its horizon and returns LogicalEvents. It is the denominator of a
// per-event cost for a parallel run too, but there only approximately:
// the parallel kernel can still order same-instant events differently
// (ROADMAP item 4), so some seeds do somewhat different work than the
// sequential run counted here.
func SequentialLogicalEvents(spec Spec) (uint64, error) {
	spec.Parallel = nil
	inst, err := Build(spec)
	if err != nil {
		return 0, err
	}
	inst.Net.Run(inst.Spec.Duration.D())
	return LogicalEvents(inst), nil
}
