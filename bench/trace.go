package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// epoch anchors nowNs; time.Since reads only the monotonic clock.
var epoch = time.Now()

// nowNs is the benchmark's one clock: monotonic nanoseconds since the
// process started measuring.
func nowNs() int64 { return int64(time.Since(epoch)) }

// sampleEvery is the share of traced frames whose spans are kept and
// written out; every traced frame feeds the per-span medians.
const sampleEvery = 64

// rootSpan is the name of the span that covers a whole frame.
const rootSpan = "frame"

// span is one recorded interval. Spans of one frame share its sequence
// number as ID; Parent is empty for the root.
type span struct {
	ID     uint64 `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer turns boundary timestamps into spans. A frame crosses
// len(names)+1 boundaries in order; child span i covers boundary i to
// boundary i+1 and the root covers the first to the last, so the
// children of a completely marked frame sum to the root exactly.
// All buffers are allocated up front: mark and commit do not allocate.
type tracer struct {
	names  []string
	t      []int64    // boundaries of the frame in flight
	dur    [][]uint32 // dur[i]: every frame's duration of span i
	root   []uint32
	kept   []span // spans of the 1-in-sampleEvery frames
	broken int    // frames with a boundary missing or out of order
}

func newTracer(names []string, frames int) *tracer {
	tr := &tracer{
		names: names,
		t:     make([]int64, len(names)+1),
		dur:   make([][]uint32, len(names)),
		root:  make([]uint32, 0, frames),
		kept:  make([]span, 0, (frames/sampleEvery+1)*(len(names)+1)),
	}
	for i := range tr.dur {
		tr.dur[i] = make([]uint32, 0, frames)
	}
	return tr
}

// mark stamps boundary i of the frame in flight.
func (tr *tracer) mark(i int) { tr.t[i] = nowNs() }

// markOnce stamps boundary i unless the frame in flight already has it
// (the first FLOW_MOD or PACKET_OUT of a reply counts, not the second).
func (tr *tracer) markOnce(i int) {
	if tr.t[i] == 0 {
		tr.t[i] = nowNs()
	}
}

// commit closes the frame with sequence number seq.
func (tr *tracer) commit(seq uint64) {
	for i := 1; i < len(tr.t); i++ {
		if tr.t[i] < tr.t[i-1] || tr.t[i-1] == 0 {
			tr.broken++
			return
		}
	}
	if len(tr.root) == cap(tr.root) {
		return
	}
	last := len(tr.t) - 1
	tr.root = append(tr.root, clampNs(tr.t[last]-tr.t[0]))
	for i := range tr.names {
		tr.dur[i] = append(tr.dur[i], clampNs(tr.t[i+1]-tr.t[i]))
	}
	if seq%sampleEvery == 0 && len(tr.kept)+len(tr.t) <= cap(tr.kept) {
		tr.kept = append(tr.kept, span{ID: seq, Name: rootSpan, Start: tr.t[0], End: tr.t[last]})
		for i, name := range tr.names {
			tr.kept = append(tr.kept, span{ID: seq, Name: name, Parent: rootSpan, Start: tr.t[i], End: tr.t[i+1]})
		}
	}
}

// clampNs stores a duration in 32 bits; 4.29 s is far beyond any frame.
func clampNs(d int64) uint32 {
	if d < 0 {
		return 0
	}
	return uint32(min(d, int64(^uint32(0))))
}

// medians returns the median duration of every child span, by name,
// and of the root. It sorts the recorded durations in place.
func (tr *tracer) medians() (map[string]float64, float64) {
	out := make(map[string]float64, len(tr.names))
	for i, name := range tr.names {
		slices.Sort(tr.dur[i])
		out[name] = quantile(tr.dur[i], 0.50)
	}
	slices.Sort(tr.root)
	return out, quantile(tr.root, 0.50)
}

// selfTime is a span's duration minus the part of its interval that
// its children cover; overlapping children are counted once and the
// part of a child outside the parent is ignored.
func selfTime(parent span, children []span) int64 {
	cs := slices.Clone(children)
	slices.SortFunc(cs, func(a, b span) int { return int(a.Start - b.Start) })
	covered, upTo := int64(0), parent.Start
	for _, c := range cs {
		start, end := max(c.Start, upTo), min(c.End, parent.End)
		if end > start {
			covered += end - start
			upTo = end
		}
	}
	return parent.End - parent.Start - covered
}

// checkSpans verifies, for every kept frame, that the children sum to
// the root exactly and so leave the root no self time. It returns the
// number of frames checked.
func checkSpans(kept []span) (frames int, err error) {
	for i := 0; i < len(kept); {
		root := kept[i]
		if root.Name != rootSpan {
			return frames, fmt.Errorf("span %d of frame %d: want the root first, have %q", i, root.ID, root.Name)
		}
		j := i + 1
		var sum int64
		for j < len(kept) && kept[j].ID == root.ID && kept[j].Parent == rootSpan {
			sum += kept[j].End - kept[j].Start
			j++
		}
		if d := root.End - root.Start; sum != d {
			return frames, fmt.Errorf("frame %d: children sum to %d ns, root is %d ns", root.ID, sum, d)
		}
		if self := selfTime(root, kept[i+1:j]); self != 0 {
			return frames, fmt.Errorf("frame %d: root self time %d ns, want 0", root.ID, self)
		}
		frames++
		i = j
	}
	return frames, nil
}

// writeSpans writes the kept spans as JSON lines.
func writeSpans(path string, kept []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range kept {
		if err := enc.Encode(&kept[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
