package main

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"matchsim/api"
)

// Layers, named after the repository's modules. Every span carries one;
// blocking-path time is attributed per layer.
const (
	layerBench    = "bench"
	layerHTTPAPI  = "httpapi"
	layerJobs     = "jobs"
	layerCluster  = "cluster"
	layerCore     = "core"
	layerCE       = "ce"
	layerGraph    = "graph"
	layerCost     = "cost"
	benchNodeName = "bench"
)

// layers lists every layer in blocking-path order, outermost first.
var layers = []string{layerBench, layerHTTPAPI, layerCluster, layerJobs, layerCore, layerCE, layerGraph, layerCost}

// span is one timed interval of a traced operation: recorded by the
// benchmark around its calls into the system, fetched from a daemon's
// /v1/traces, or rebuilt from solver telemetry. All spans of one
// operation share TraceID.
type span struct {
	TraceID    string            `json:"trace_id"`
	SpanID     string            `json:"span_id"`
	ParentID   string            `json:"parent_id,omitempty"`
	Name       string            `json:"name"`
	Node       string            `json:"node"`
	Layer      string            `json:"layer"`
	Start      time.Time         `json:"start"`
	DurationNs int64             `json:"duration_ns"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

func (s span) end() time.Time { return s.Start.Add(time.Duration(s.DurationNs)) }

// newSpan builds a span over [start, end] (clamped to zero length if end
// precedes start).
func newSpan(traceID, parentID, name, node, layer string, start, end time.Time) span {
	d := end.Sub(start)
	if d < 0 {
		d = 0
	}
	return span{TraceID: traceID, SpanID: newSpanID(), ParentID: parentID, Name: name,
		Node: node, Layer: layer, Start: start, DurationNs: int64(d)}
}

func randomHex(n int) string {
	b := make([]byte, n)
	_, _ = rand.Read(b) // crypto/rand.Read does not fail on Linux
	return hex.EncodeToString(b)
}

func newTraceID() string { return randomHex(16) }
func newSpanID() string  { return randomHex(8) }

// traceparent formats a W3C traceparent header value.
func traceparent(traceID, spanID string) string {
	return "00-" + traceID + "-" + spanID + "-01"
}

// flattenDaemonSpans converts a daemon's span tree into flat spans, giving
// each its layer: everything a coordinator records is the cluster layer;
// on a solving daemon the HTTP routes are httpapi, the job lifecycle is
// jobs, and the solve is core. Each per-iteration event of a solve span
// becomes a ce.iteration child, so CE time shows up inside the solve.
func flattenDaemonSpans(doc api.TraceDoc, node string, coordinator bool) []span {
	var out []span
	var walk func(s api.Span)
	walk = func(s api.Span) {
		layer := layerHTTPAPI
		switch {
		case coordinator:
			layer = layerCluster
		case s.Name == "job" || s.Name == "queue":
			layer = layerJobs
		case s.Name == "solve":
			layer = layerCore
		}
		out = append(out, span{TraceID: s.TraceID, SpanID: s.SpanID, ParentID: s.ParentID,
			Name: s.Name, Node: node, Layer: layer, Start: s.Start, DurationNs: s.DurationNs, Attrs: s.Attrs})
		if s.Name == "solve" {
			for _, e := range s.Events {
				if e.Name != "iter" {
					continue
				}
				var phases int64
				for _, k := range []string{"sample_ns", "select_ns", "update_ns"} {
					v, _ := strconv.ParseInt(e.Attrs[k], 10, 64)
					phases += v
				}
				end := s.Start.Add(time.Duration(e.OffsetNs))
				it := newSpan(s.TraceID, s.SpanID, "ce.iteration", node, layerCE, end.Add(-time.Duration(phases)), end)
				it.Attrs = e.Attrs
				out = append(out, it)
			}
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, s := range doc.Spans {
		walk(s)
	}
	return out
}

func spansByTrace(spans []span) map[string][]span {
	out := make(map[string][]span)
	for _, s := range spans {
		out[s.TraceID] = append(out[s.TraceID], s)
	}
	return out
}

// spanNode is a span with its children and the latest end over its whole
// subtree: a child may outlive its parent (a job outlives the request that
// submitted it), and the work it represents still blocks whoever waits
// for it.
type spanNode struct {
	span
	kids   []*spanNode
	extEnd time.Time
}

// buildTree links spans by ParentID and returns the node for rootID (nil
// when rootID is absent). Spans whose parent is not in the set are
// unreachable from the root and ignored.
func buildTree(spans []span, rootID string) *spanNode {
	nodes := make(map[string]*spanNode, len(spans))
	for _, s := range spans {
		nodes[s.SpanID] = &spanNode{span: s}
	}
	for _, n := range nodes {
		if p := nodes[n.ParentID]; p != nil && n.ParentID != n.SpanID {
			p.kids = append(p.kids, n)
		}
	}
	root := nodes[rootID]
	if root != nil {
		extend(root)
	}
	return root
}

// extend sets extEnd over n's subtree. The walk terminates because every
// span has one parent and the root has none in the set.
func extend(n *spanNode) time.Time {
	n.extEnd = n.end()
	for _, k := range n.kids {
		if e := extend(k); e.After(n.extEnd) {
			n.extEnd = e
		}
	}
	return n.extEnd
}

// blockingPath attributes every instant of the root span to exactly one
// layer: walking back from the root's end, each instant belongs to the
// child (with its subtree) that was still running latest, or to the span
// itself when no child covers it. A span's share is therefore its self
// time — its duration minus the part its children cover, overlapping
// children counted once — and the shares of all layers sum to the root's
// duration.
func blockingPath(spans []span, rootID string) map[string]time.Duration {
	out := make(map[string]time.Duration)
	root := buildTree(spans, rootID)
	if root == nil {
		return out
	}
	attribute(root, root.Start, root.end(), out)
	return out
}

func attribute(n *spanNode, lo, hi time.Time, out map[string]time.Duration) {
	cursor := hi
	for cursor.After(lo) {
		var best *spanNode
		bestEnd := lo
		for _, k := range n.kids {
			if !k.Start.Before(cursor) {
				continue
			}
			e := k.extEnd
			if e.After(cursor) {
				e = cursor
			}
			if e.After(bestEnd) {
				best, bestEnd = k, e
			}
		}
		if best == nil {
			break
		}
		out[n.Layer] += cursor.Sub(bestEnd)
		start := best.Start
		if start.Before(lo) {
			start = lo
		}
		attribute(best, start, bestEnd, out)
		cursor = start
	}
	if cursor.After(lo) {
		out[n.Layer] += cursor.Sub(lo)
	}
}

// writeSpans writes spans as JSONL, ordered by trace and start time.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].TraceID != spans[j].TraceID {
			return spans[i].TraceID < spans[j].TraceID
		}
		return spans[i].Start.Before(spans[j].Start)
	})
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
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
