package main

import (
	"sort"
	"strings"

	"rpol/internal/obs"
)

// span is one finished traced operation on the shared wall clock.
type span struct {
	id         int64
	name       string
	start, end int64 // ns
	bytes      int64 // from a "bytes" end attribute, if any
}

func (s span) dur() int64 { return s.end - s.start }

// spansFrom pairs start and end events; spans that never ended are dropped.
func spansFrom(events []obs.Event) []span {
	open := make(map[int64]int, len(events)/2)
	var out []span
	for _, ev := range events {
		switch ev.Ev {
		case "start":
			open[ev.ID] = len(out)
			out = append(out, span{id: ev.ID, name: ev.Name, start: ev.TS, end: -1})
		case "end":
			i, ok := open[ev.ID]
			if !ok {
				continue
			}
			out[i].end = ev.TS
			if b, ok := ev.Attrs["bytes"].(float64); ok {
				out[i].bytes = int64(b)
			}
		}
	}
	done := out[:0]
	for _, s := range out {
		if s.end >= s.start {
			done = append(done, s)
		}
	}
	sort.Slice(done, func(i, j int) bool {
		if done[i].start != done[j].start {
			return done[i].start < done[j].start
		}
		return done[i].id < done[j].id
	})
	return done
}

// Span names the benchmark itself records: the epoch around
// Pool.RunEpoch or Manager.RunEpoch, and the collection window it derives
// from the program's spans.
const (
	epochSpan   = "bench.epoch"
	collectSpan = "bench.collect"
)

// selfLayers are the layers an epoch's wall time is split into, in report
// order. Each instant of an epoch belongs to exactly one of them or to the
// unattributed remainder, so their self times and the remainder add up to
// the epoch's wall time.
var selfLayers = []string{
	"pool", "calibrate", "collect", "verify", "reexec", "compare", "aggregate",
	"worker_train", "worker_commit", "worker_served", "wire",
	"netsim_send", "netsim_recv_wait", "fsio", "other",
}

const unattributed = "unattributed"

// maxUnattributed is the share of epoch time the named layers may leave
// unattributed: the layers' self times must cover the rest.
const maxUnattributed = 0.05

// layerOf maps a span name to the layer its self time is charged to.
// poolLayer says whether the epoch span is Pool.RunEpoch (whose own time
// is the pool's evaluation and settlement) or Manager.RunEpoch.
func layerOf(name string, poolLayer bool) string {
	switch name {
	case epochSpan:
		if poolLayer {
			return "pool"
		}
		return unattributed
	case "manager.epoch":
		return unattributed
	case "manager.calibrate", "calibrate.probe":
		return "calibrate"
	case collectSpan:
		return "collect"
	case "verify.submission", "verify.challenge":
		return "verify"
	case "verify.reproduce":
		return "reexec"
	case "verify.compare":
		return "compare"
	case "manager.aggregate":
		return "aggregate"
	case "worker.train":
		return "worker_train"
	case "worker.commit":
		return "worker_commit"
	case "served.task", "served.open":
		return "worker_served"
	case "wire.task", "wire.open":
		return "wire"
	case "netsim.send":
		return "netsim_send"
	case "netsim.recv":
		return "netsim_recv_wait"
	}
	if strings.HasPrefix(name, "fsio.") {
		return "fsio"
	}
	return "other"
}

// profile is the fold of every traced epoch's spans.
type profile struct {
	epochs  int
	epochNs []int64          // wall time of each traced epoch
	self    map[string]int64 // layer → self ns
	total   map[string]int64 // span name → Σ duration ns
	count   map[string]int64 // span name → spans
	bytes   map[string]int64 // span name → Σ bytes
}

// foldEpochs attributes every instant of each epoch span to the innermost
// span active at that instant: on the manager's blocking path spans nest,
// and the innermost one is the one that started last. Spans of concurrent
// collection overlap without nesting; the rule still charges each instant
// once, to the most recently started work.
//
// worker.epoch spans are skipped: the program opens one per worker before
// collection and closes it after verification, so it spans both phases
// and marks no layer of its own.
func foldEpochs(all []span, poolLayer bool) profile {
	pr := profile{
		self:  make(map[string]int64),
		total: make(map[string]int64),
		count: make(map[string]int64),
		bytes: make(map[string]int64),
	}
	var epochs []span
	for _, s := range all {
		if s.name == epochSpan {
			epochs = append(epochs, s)
		}
	}
	for _, ep := range epochs {
		var members []span
		for _, s := range all {
			if s.start >= ep.start && s.end <= ep.end && s.name != "worker.epoch" {
				members = append(members, s)
			}
		}
		members = append(members, collectWindow(members, ep))
		for _, s := range members {
			pr.total[s.name] += s.dur()
			pr.count[s.name]++
			pr.bytes[s.name] += s.bytes
		}
		for layer, ns := range attribute(members, ep, poolLayer) {
			pr.self[layer] += ns
		}
		pr.epochs++
		pr.epochNs = append(pr.epochNs, ep.dur())
	}
	return pr
}

// collectWindow is the epoch's collection phase: from the end of
// calibration (or the manager's start) to the first verification (or
// aggregation, or the manager's end). It gets the largest span ID so it
// counts as opened after the calibration it follows.
func collectWindow(members []span, ep span) span {
	w := span{id: 1 << 62, name: collectSpan, start: ep.start, end: ep.end}
	var (
		haveManager, haveCal, haveVerify bool
		mgr                              span
		verifyStart                      int64
	)
	for _, s := range members {
		switch s.name {
		case "manager.epoch":
			haveManager, mgr = true, s
		case "manager.calibrate":
			haveCal = true
			w.start = s.end
		case "verify.submission", "manager.aggregate":
			if !haveVerify || s.start < verifyStart {
				haveVerify, verifyStart = true, s.start
			}
		}
	}
	if haveManager {
		if !haveCal {
			w.start = mgr.start
		}
		w.end = mgr.end
	}
	if haveVerify {
		w.end = verifyStart
	}
	if w.end < w.start {
		w.end = w.start
	}
	return w
}

// attribute sweeps the epoch window and charges each elementary segment to
// the active span with the latest start (ties: the later-opened span).
func attribute(members []span, ep span, poolLayer bool) map[string]int64 {
	type edge struct {
		t    int64
		i    int
		open bool
	}
	edges := make([]edge, 0, 2*len(members))
	for i, s := range members {
		edges = append(edges, edge{s.start, i, true}, edge{s.end, i, false})
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].t != edges[b].t {
			return edges[a].t < edges[b].t
		}
		return !edges[a].open && edges[b].open // close before open at a tie
	})
	out := make(map[string]int64)
	active := make(map[int]bool)
	prev := ep.start
	innermost := func() string {
		best := -1
		for i := range active {
			if best < 0 || later(members[i], members[best]) {
				best = i
			}
		}
		if best < 0 {
			return layerOf(epochSpan, poolLayer)
		}
		return layerOf(members[best].name, poolLayer)
	}
	for _, e := range edges {
		if e.t > prev {
			out[innermost()] += e.t - prev
			prev = e.t
		}
		if e.open {
			active[e.i] = true
		} else {
			delete(active, e.i)
		}
	}
	if ep.end > prev {
		out[innermost()] += ep.end - prev
	}
	return out
}

// later reports whether a opened after b.
func later(a, b span) bool {
	if a.start != b.start {
		return a.start > b.start
	}
	return a.id > b.id
}
