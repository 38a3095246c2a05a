package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// spanID indexes a span in its tracer; noSpan is "no parent".
type spanID int32

const noSpan spanID = -1

// span is one timed call the harness made into a layer: which layer
// (Name is the module name), when, under which parent span, and for
// which op. Spans of one op share Op.
type span struct {
	Name    string `json:"name"`
	Parent  spanID `json:"parent"`
	Op      int    `json:"op"`
	StartNS int64  `json:"start_ns"` // since the tracer's epoch
	EndNS   int64  `json:"end_ns"`
}

// tracer records spans in memory around the harness's own calls and
// writes them out when the run ends. The program under test is not
// instrumented (spans inside it are ROADMAP item 3). A nil *tracer is
// tracing switched off: begin and end are then no-ops, which is how the
// end-to-end metrics are measured.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) begin(name string, parent spanID, op int) spanID {
	if t == nil {
		return noSpan
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op, StartNS: now})
	id := spanID(len(t.spans) - 1)
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id spanID) {
	if t == nil || id == noSpan {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// selfTimes returns, per span name, each span's duration minus the part
// of it its children cover — a layer's self time.
func (t *tracer) selfTimes() map[string][]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != noSpan {
			covered[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := make(map[string][]time.Duration)
	for i, s := range t.spans {
		out[s.Name] = append(out[s.Name], time.Duration(s.EndNS-s.StartNS-covered[i]))
	}
	return out
}

// traceFile is what a traced run leaves on disk.
type traceFile struct {
	Host     hostFacts          `json:"host"`
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Layers   map[string]float64 `json:"per_layer"`
	Spans    []span             `json:"spans"`
}

// writeJSON writes v to path (creating its directory), checking every
// step: a truncated result file would poison a later comparison.
func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
