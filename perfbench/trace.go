package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into the library, recorded by the benchmark around
// the public function it calls. Parent indexes the enclosing span (-1 for a
// pass root); Run is the pass the span belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory for the traced phase of a run; they are
// written out once, when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(name string, parent, run int, start time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.t0)), End: -1, Parent: parent, Run: run})
	return len(t.spans) - 1
}

func (t *tracer) finish(id int, end time.Time) {
	t.mu.Lock()
	t.spans[id].End = int64(end.Sub(t.t0))
	t.mu.Unlock()
}

// perRun sums the durations (seconds) of the named spans within each run
// and returns one total per run that has any, in run order.
func (t *tracer) perRun(names ...string) []float64 {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	totals := map[int]float64{}
	for _, s := range t.spans {
		if want[s.Name] && s.End >= 0 {
			totals[s.Run] += float64(s.End-s.Start) / 1e9
		}
	}
	runs := make([]int, 0, len(totals))
	for r := range totals {
		runs = append(runs, r)
	}
	sort.Ints(runs)
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = totals[r]
	}
	return out
}

// durations returns every finished span of the given name, in seconds.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// computeSelf fills each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children, such as two
// concurrent clients, are counted once).
func (t *tracer) computeSelf() {
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.End < 0 {
			continue
		}
		var ivs [][2]int64
		for _, c := range children[i] {
			cs := t.spans[c]
			if cs.End < 0 {
				continue
			}
			ivs = append(ivs, [2]int64{max(cs.Start, s.Start), min(cs.End, s.End)})
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		covered, curS, curE := int64(0), int64(-1), int64(-1)
		for _, iv := range ivs {
			if iv[0] > curE {
				covered += max(curE-curS, 0)
				curS, curE = iv[0], iv[1]
			} else if iv[1] > curE {
				curE = iv[1]
			}
		}
		covered += max(curE-curS, 0)
		s.Self = s.End - s.Start - covered
	}
}

// spanSummary aggregates spans of one name.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func (t *tracer) summary() []spanSummary {
	byName := map[string]*spanSummary{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		a := byName[s.Name]
		if a == nil {
			a = &spanSummary{Name: s.Name}
			byName[s.Name] = a
		}
		a.Count++
		a.TotalMS += float64(s.End-s.Start) / 1e6
		a.SelfMS += float64(s.Self) / 1e6
	}
	out := make([]spanSummary, 0, len(byName))
	for _, a := range byName {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// write dumps the spans, with self times and a per-name summary, as JSON.
func (t *tracer) write(path, workload string, seed uint64) error {
	t.computeSelf()
	data, err := json.Marshal(struct {
		Workload string        `json:"workload"`
		Seed     uint64        `json:"seed"`
		Summary  []spanSummary `json:"summary"`
		Spans    []span        `json:"spans"`
	}{workload, seed, t.summary(), t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
