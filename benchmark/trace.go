package main

// Spans are recorded only by benchmark-owned code, around calls into the
// product; the product itself is not instrumented. They are kept in memory
// and written out when the run ends.

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// span is one timed interval. Spans caused by another carry its id as
// parent; req groups the spans of one request (an op, a frame, a device
// batch).
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the trace's memory; spans past it are counted, not kept.
const maxSpans = 1 << 19

type tracer struct {
	mu      sync.Mutex
	spans   []span
	dropped uint64

	next atomic.Uint64
	// cur is the span of the benchmark's call that is inside the product
	// right now on the issuing goroutine; decorator spans on the client
	// side of a connection take it as parent.
	cur atomic.Uint64
}

func newTracer() *tracer { return &tracer{spans: make([]span, 0, maxSpans)} }

func (t *tracer) id() uint64 { return t.next.Add(1) }

func (t *tracer) add(name string, id, parent, req uint64, start, end int64) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{name, id, parent, req, start, end})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// enter opens the issue span of a sampled op and returns the op's span id
// (the issue span is id+1).
func (t *tracer) enter() uint64 {
	id := t.next.Add(2) - 1
	t.cur.Store(id + 1)
	return id
}

// leave closes the issue span opened by enter.
func (t *tracer) leave() int64 {
	t.cur.Store(0)
	return nowNs()
}

// op records a sampled operation: issued at t0, the issuing call returned
// at t1, the reaper began waiting at tw and Wait returned at t2.
func (t *tracer) op(id, req uint64, t0, t1, tw, t2 int64) {
	t.add("shadowfax.op", id, 0, req, t0, t2)
	t.add("shadowfax.issue", id+1, id, req, t0, t1)
	t.add("shadowfax.wait", t.id(), id, req, tw, t2)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
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

// selfStat sums one span name: how many, their total duration, and the part
// of it not covered by child spans.
type selfStat struct {
	count         int
	total, selfNs int64
}

// selfTimes computes, per span name, total time and self time: a span's
// duration minus the part of its interval that its children cover.
func selfTimes(spans []span) map[string]selfStat {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]selfStat{}
	for _, s := range spans {
		covered := int64(0)
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		at := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, at), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		st := out[s.Name]
		st.count++
		st.total += s.End - s.Start
		st.selfNs += s.End - s.Start - covered
		out[s.Name] = st
	}
	return out
}
