package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one traced interval. Spans are kept in memory and written when
// the run ends. Layer names the module whose self time the span carries
// ("" for the benchmark's own containers, which become the unattributed
// residual).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for the root
	Name   string `json:"name"`
	Layer  string `json:"layer,omitempty"`
	Op     int64  `json:"op"` // op or request id; -1 for set-up spans
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans against one epoch from a single goroutine. A nil
// *tracer records nothing, so untraced runs pay only a nil check per call.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// ns converts a wall-clock instant to the tracer's clock.
func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// add records a finished span and returns its id (0 on a nil tracer).
func (t *tracer) add(parent int, name, layer string, op int64, start, end time.Time) int {
	if t == nil {
		return 0
	}
	return t.addNS(parent, name, layer, op, t.ns(start), t.ns(end))
}

// addNS is add on the tracer's own clock.
func (t *tracer) addNS(parent int, name, layer string, op int64, start, end int64) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Op: op, Start: start, End: end})
	return id
}

// open records a span whose end is not known yet; close it with end.
func (t *tracer) open(parent int, name, layer string, op int64) int {
	if t == nil {
		return 0
	}
	now := t.ns(time.Now())
	return t.addNS(parent, name, layer, op, now, now)
}

// end stamps an open span's end with the current time.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.ns(time.Now())
	t.spans[id-1].End = now
}

// selfTimes returns each layer's self time in seconds: every span's
// duration minus the part of it its children cover, summed by layer.
// Spans without a layer sum into "unattributed".
func (t *tracer) selfTimes() map[string]float64 {
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		self := float64(s.End-s.Start-covered(s.Start, s.End, children[s.ID])) / 1e9
		layer := s.Layer
		if layer == "" {
			layer = "unattributed"
		}
		out[layer] += self
	}
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write stores the spans as JSON under dir and returns the file path.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	data, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// addSelfTimes copies the tracer's per-layer self times into vals under
// the self.<layer>_s names.
func addSelfTimes(vals map[string]float64, t *tracer) {
	for layer, s := range t.selfTimes() {
		vals["self."+layer+"_s"] = s
	}
}
