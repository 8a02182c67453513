package trace

import (
	"reflect"
	"testing"
	"time"
)

// forwardCapture builds the span shape a forwarded ingest leaves behind:
// a sampled client context, the origin instance's HTTP root with its
// cluster.forward child, and the forward target's root (same trace ID,
// parented on the forward span) with one child of its own. Tracer seeds
// are fixed per role, so two captures that differ only in WHICH instance
// played the target produce identical span IDs.
func forwardCapture(t *testing.T, instances []string, origin, target int) (string, []Source) {
	t.Helper()
	client, err := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if err != nil {
		t.Fatal(err)
	}
	originTr := New(Config{Seed: 100})
	targetTr := New(Config{Seed: 200})

	root := originTr.StartRoot("http POST /ingest/batch", client)
	fwd := originTr.StartChild(root.Context(), "cluster.forward")
	fwd.SetAttr("peer", instances[target])
	remoteRoot := targetTr.StartRoot("http POST /ingest/batch", fwd.Context())
	remoteChild := targetTr.StartChild(remoteRoot.Context(), "wal.append")
	remoteChild.Finish()
	remoteRoot.Finish()
	fwd.Finish()
	root.Finish()

	sources := make([]Source, len(instances))
	for i, name := range instances {
		sources[i] = Source{Instance: name}
		switch i {
		case origin:
			sources[i].Traces = originTr.Traces(0, 0)
		case target:
			sources[i].Traces = targetTr.Traces(0, 0)
		}
	}
	return root.Context().Trace.String(), sources
}

func permutations(n int) [][]int {
	if n == 1 {
		return [][]int{{0}}
	}
	var out [][]int
	for _, sub := range permutations(n - 1) {
		for i := 0; i <= len(sub); i++ {
			p := append(append(append([]int{}, sub[:i]...), n-1), sub[i:]...)
			out = append(out, p)
		}
	}
	return out
}

func TestAssembleIndependentOfPullOrder(t *testing.T) {
	instances := []string{"a:1", "b:1", "c:1"}
	id, sources := forwardCapture(t, instances, 0, 1)
	want, ok := Assemble(id, sources)
	if !ok {
		t.Fatal("trace not found")
	}
	if len(want.Spans) != 4 {
		t.Fatalf("stitched %d spans, want 4", len(want.Spans))
	}
	for _, perm := range permutations(len(sources)) {
		shuffled := make([]Source, len(sources))
		for i, j := range perm {
			shuffled[i] = sources[j]
		}
		got, ok := Assemble(id, shuffled)
		if !ok {
			t.Fatalf("perm %v: trace not found", perm)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("perm %v: stitched trace differs\ngot  %+v\nwant %+v", perm, got, want)
		}
	}
}

// normalizeCapture strips the wall-clock fields and maps the given
// instance names to role placeholders, leaving only the tree structure —
// what must be invariant when a different peer plays the forward target.
func normalizeCapture(tr Trace, roles map[string]string) Trace {
	tr.Duration = 0
	spans := append([]SpanData(nil), tr.Spans...)
	for i := range spans {
		spans[i].Start = time.Time{}
		spans[i].DurationNS = 0
		attrs := append([]Attr(nil), spans[i].Attrs...)
		for j := range attrs {
			if r, ok := roles[attrs[j].Value]; ok {
				attrs[j].Value = r
			}
		}
		spans[i].Attrs = attrs
	}
	// Start times are zeroed, so re-sort by the ID tiebreak for a stable
	// comparison order.
	for i := 1; i < len(spans); i++ {
		for j := i; j > 0 && (spans[j].TraceID < spans[j-1].TraceID ||
			(spans[j].TraceID == spans[j-1].TraceID && spans[j].SpanID < spans[j-1].SpanID)); j-- {
			spans[j], spans[j-1] = spans[j-1], spans[j]
		}
	}
	tr.Spans = spans
	return tr
}

func TestAssembleIndependentOfForwardTarget(t *testing.T) {
	instances := []string{"a:1", "b:1", "c:1"}
	var got []Trace
	for _, target := range []int{1, 2} {
		id, sources := forwardCapture(t, instances, 0, target)
		tr, ok := Assemble(id, sources)
		if !ok {
			t.Fatalf("target %d: trace not found", target)
		}
		got = append(got, normalizeCapture(tr, map[string]string{
			instances[0]:      "origin",
			instances[target]: "target",
		}))
	}
	if !reflect.DeepEqual(got[0], got[1]) {
		t.Fatalf("stitched tree depends on forward target\nb: %+v\nc: %+v", got[0], got[1])
	}
}

func TestAssembleTagsInstancesAndDedups(t *testing.T) {
	instances := []string{"a:1", "b:1"}
	id, sources := forwardCapture(t, instances, 0, 1)
	// Duplicate the origin capture under its own name — a coordinator
	// pulling the same peer twice must not duplicate spans.
	sources = append(sources, sources[0])
	tr, ok := Assemble(id, sources)
	if !ok {
		t.Fatal("trace not found")
	}
	if len(tr.Spans) != 4 {
		t.Fatalf("stitched %d spans, want 4 (dedup failed?)", len(tr.Spans))
	}
	byInstance := map[string]int{}
	for _, sd := range tr.Spans {
		var inst string
		for _, a := range sd.Attrs {
			if a.Key == "instance" {
				inst = a.Value
				break
			}
		}
		if inst == "" {
			t.Fatalf("span %s has no instance attr", sd.Name)
		}
		byInstance[inst]++
	}
	if byInstance["a:1"] != 2 || byInstance["b:1"] != 2 {
		t.Fatalf("instance attribution wrong: %v", byInstance)
	}
	// The forward hop is stitched: the target's root is parented on the
	// origin's forward span inside the same assembled tree.
	spanByID := map[string]SpanData{}
	for _, sd := range tr.Spans {
		spanByID[sd.SpanID] = sd
	}
	stitched := false
	for _, sd := range tr.Spans {
		if !sd.Root || sd.Parent == "" {
			continue
		}
		if parent, ok := spanByID[sd.Parent]; ok && parent.Name == "cluster.forward" {
			stitched = true
		}
	}
	if !stitched {
		t.Fatal("forward target's root is not parented on the origin's forward span")
	}
}

func TestAssembleFollowsRetryLinks(t *testing.T) {
	// First attempt kept on instance a as its own trace; the retry (a new
	// trace) links back to it. Assembling the retry must fold the linked
	// attempt's spans in, one level deep.
	trA := New(Config{Seed: 1})
	forced, err := ParseTraceparent("00-1bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if err != nil {
		t.Fatal(err)
	}
	attempt1 := trA.StartRoot("cluster.client.send", forced)
	attempt1.Finish()

	forced2, err := ParseTraceparent("00-2bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b8-01")
	if err != nil {
		t.Fatal(err)
	}
	trB := New(Config{Seed: 2})
	attempt2 := trB.StartRoot("cluster.client.send", forced2)
	attempt2.AddLink(attempt1.Context(), Str("reason", "retry"))
	attempt2.Finish()

	id := attempt2.Context().Trace.String()
	tr, ok := Assemble(id, []Source{
		{Instance: "a:1", Traces: trA.Traces(0, 0)},
		{Instance: "b:1", Traces: trB.Traces(0, 0)},
	})
	if !ok {
		t.Fatal("trace not found")
	}
	if len(tr.Spans) != 2 {
		t.Fatalf("stitched %d spans, want 2 (link not followed)", len(tr.Spans))
	}
	traces := map[string]bool{}
	for _, sd := range tr.Spans {
		traces[sd.TraceID] = true
	}
	if len(traces) != 2 {
		t.Fatalf("expected spans from 2 trace IDs, got %v", traces)
	}
	if tr.ID != id {
		t.Fatalf("assembled ID %s, want %s", tr.ID, id)
	}
}

func TestAssembleMissingTrace(t *testing.T) {
	if _, ok := Assemble("deadbeef", []Source{{Instance: "a:1"}}); ok {
		t.Fatal("assembled a trace no source holds")
	}
}
