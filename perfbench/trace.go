package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one request share
// Req; Parent is the ID of the enclosing span, 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    string `json:"req"`
	Name   string `json:"name"`
	// StartNS and EndNS are offsets from the tracer's creation.
	StartNS int64 `json:"startNS"`
	EndNS   int64 `json:"endNS"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs call the same code.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open starts a span and returns its ID.
func (t *tracer) open(name, req string, parent int, start time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		StartNS: int64(start.Sub(t.epoch))})
	return id
}

// close ends span id.
func (t *tracer) close(id int, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id-1].EndNS = int64(end.Sub(t.epoch))
	t.mu.Unlock()
}

// add records a span whose interval is already known.
func (t *tracer) add(name, req string, parent int, start, end time.Time) int {
	id := t.open(name, req, parent, start)
	t.close(id, end)
	return id
}

// durations returns the durations of every span called name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// check verifies that the spans nest: every child lies inside its parent
// and shares its request ID.
func (t *tracer) check() error {
	for _, s := range t.spans {
		if s.EndNS < s.StartNS {
			return fmt.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent < 0 || s.Parent > len(t.spans) {
			return fmt.Errorf("span %d %s has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		p := t.spans[s.Parent-1]
		if s.Req != p.Req {
			return fmt.Errorf("span %d %s has request %q, its parent %d %s has %q", s.ID, s.Name, s.Req, p.ID, p.Name, p.Req)
		}
		if s.StartNS < p.StartNS || s.EndNS > p.EndNS {
			return fmt.Errorf("span %d %s [%d, %d] lies outside its parent %d %s [%d, %d]",
				s.ID, s.Name, s.StartNS, s.EndNS, p.ID, p.Name, p.StartNS, p.EndNS)
		}
	}
	return nil
}

// selfTimes returns each span's duration minus the part of it that its
// children cover.
func (t *tracer) selfTimes() []time.Duration {
	children := make([][]span, len(t.spans))
	for _, s := range t.spans {
		if s.Parent > 0 {
			children[s.Parent-1] = append(children[s.Parent-1], s)
		}
	}
	out := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNS < kids[b].StartNS })
		covered, reach := int64(0), s.StartNS
		for _, k := range kids {
			from, to := max(k.StartNS, reach), min(k.EndNS, s.EndNS)
			if to > from {
				covered += to - from
				reach = to
			}
		}
		out[i] = s.dur() - time.Duration(covered)
	}
	return out
}

// selfDurations returns the self times of every span called name.
func (t *tracer) selfDurations(name string) []time.Duration {
	self := t.selfTimes()
	var out []time.Duration
	for i, s := range t.spans {
		if s.Name == name {
			out = append(out, self[i])
		}
	}
	return out
}

// layerSummary aggregates the spans of one name.
type layerSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"totalMS"`
	SelfMS  float64 `json:"selfMS"`
	P50MS   float64 `json:"p50MS"`
}

func (t *tracer) summary() []layerSummary {
	self := t.selfTimes()
	byName := map[string]*layerSummary{}
	durs := map[string][]float64{}
	for i, s := range t.spans {
		l, ok := byName[s.Name]
		if !ok {
			l = &layerSummary{Name: s.Name}
			byName[s.Name] = l
		}
		l.Count++
		l.TotalMS += ms(s.dur())
		l.SelfMS += ms(self[i])
		durs[s.Name] = append(durs[s.Name], ms(s.dur()))
	}
	var out []layerSummary
	for name, l := range byName {
		l.P50MS = median(durs[name])
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// summarize prints the per-layer self-time table.
func (t *tracer) summarize(w io.Writer) {
	fmt.Fprintf(w, "%-24s %8s %12s %12s %10s\n", "span", "count", "total_ms", "self_ms", "p50_ms")
	for _, l := range t.summary() {
		fmt.Fprintf(w, "%-24s %8d %12.2f %12.2f %10.4f\n", l.Name, l.Count, l.TotalMS, l.SelfMS, l.P50MS)
	}
}

// write stores the spans and their summary as JSON under dir and returns
// the file's path.
func (t *tracer) write(dir, workload string, fp fingerprint) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", workload, fp.Seed))
	data, err := json.Marshal(struct {
		Fingerprint fingerprint    `json:"fingerprint"`
		Layers      []layerSummary `json:"layers"`
		Spans       []span         `json:"spans"`
	}{fp, t.summary(), t.spans})
	if err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	return path, nil
}

// perRequestUS sums, for each request that has any, the durations of its
// spans with the given names, in microseconds.
func (t *tracer) perRequestUS(names ...string) []float64 {
	sums := map[string]time.Duration{}
	for _, s := range t.spans {
		for _, n := range names {
			if s.Name == n {
				sums[s.Req] += s.dur()
			}
		}
	}
	var out []float64
	for _, d := range sums {
		out = append(out, us(d))
	}
	return out
}
