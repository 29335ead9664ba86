package main

import (
	"sort"
	"sync"
	"time"
)

// opTrace records the layer calls of one replayed operation: which layer,
// and when each call started and ended, relative to the operation's start.
// Calls may be recorded from several goroutines.
type opTrace struct {
	t0    time.Time
	wall  time.Duration
	mu    sync.Mutex
	spans []span
}

type span struct {
	layer      string
	start, end time.Duration
}

func newOpTrace() *opTrace { return &opTrace{t0: time.Now()} }

func (t *opTrace) now() time.Duration { return time.Since(t.t0) }

// add records a call of layer that started at start and ends now.
func (t *opTrace) add(layer string, start time.Duration) {
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{layer, start, end})
	t.mu.Unlock()
}

// finish ends the operation.
func (t *opTrace) finish() { t.wall = t.now() }

// attribute splits the operation's wall time among its layers in
// milliseconds. Each instant is shared evenly by the layer calls running at
// it, so calls overlapping on the tuple workers are not counted twice and
// the shares add up to the time during which some call ran; other is the
// rest of the wall time.
func (t *opTrace) attribute() (shares map[string]float64, other float64) {
	type edge struct {
		at   time.Duration
		span int
		open bool
	}
	edges := make([]edge, 0, 2*len(t.spans))
	for i, s := range t.spans {
		edges = append(edges, edge{s.start, i, true}, edge{s.end, i, false})
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].at != edges[b].at {
			return edges[a].at < edges[b].at
		}
		return edges[a].open && !edges[b].open
	})
	shares = make(map[string]float64)
	active := make(map[int]bool)
	covered := 0.0
	var last time.Duration
	for _, e := range edges {
		if len(active) > 0 && e.at > last {
			part := ms(e.at-last) / float64(len(active))
			for i := range active {
				shares[t.spans[i].layer] += part
			}
			covered += ms(e.at - last)
		}
		last = e.at
		if e.open {
			active[e.span] = true
		} else {
			delete(active, e.span)
		}
	}
	return shares, ms(t.wall) - covered
}
