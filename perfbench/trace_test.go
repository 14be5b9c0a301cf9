package main

import "testing"

func sp(name, parent layer, start, end int64) span {
	return span{op: 1, name: name, parent: parent, start: start, end: end}
}

func selfOf(t *testing.T, tree opTree, name layer) int64 {
	t.Helper()
	total := int64(0)
	found := false
	for i, s := range tree.spans {
		if s.name == name {
			total += tree.self[i]
			found = true
		}
	}
	if !found {
		t.Fatalf("no %v span", name)
	}
	return total
}

func TestSelfTimeNested(t *testing.T) {
	// op [0,100) ⊃ engine [10,90) ⊃ timebase [20,25) and [50,60).
	tree, ok := buildTree([]span{
		sp(lOp, lOp, 0, 100),
		sp(lEngine, lOp, 10, 90),
		sp(lTimebase, lEngine, 20, 25),
		sp(lTimebase, lEngine, 50, 60),
	})
	if !ok {
		t.Fatal("no root")
	}
	if got := selfOf(t, tree, lOp); got != 20 {
		t.Errorf("op self = %d, want 20", got)
	}
	if got := selfOf(t, tree, lEngine); got != 65 {
		t.Errorf("engine self = %d, want 65", got)
	}
	if got := selfOf(t, tree, lTimebase); got != 15 {
		t.Errorf("timebase self = %d, want 15", got)
	}
	if u := tree.unattributed(); u != 0 {
		t.Errorf("unattributed = %d, want 0 for disjoint siblings", u)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// Two overlapping children cover [10,40) together: the parent loses 30,
	// not 40, but the children's own self times count the overlap twice,
	// which the unattributed remainder exposes.
	tree, _ := buildTree([]span{
		sp(lOp, lOp, 0, 50),
		sp(lClientWrite, lOp, 10, 30),
		sp(lClientRead, lOp, 20, 40),
	})
	if got := selfOf(t, tree, lOp); got != 20 {
		t.Errorf("op self = %d, want 20", got)
	}
	if u := tree.unattributed(); u != -10 {
		t.Errorf("unattributed = %d, want -10", u)
	}
}

func TestSelfTimeClipsChildToParent(t *testing.T) {
	// The server span starts before the client's read began and ends after
	// it returned; only the part inside the read counts against the read.
	tree, _ := buildTree([]span{
		sp(lOp, lOp, 0, 100),
		sp(lClientWrite, lOp, 0, 10),
		sp(lClientRead, lOp, 10, 90),
		sp(lServer, lClientRead, 5, 95),
		sp(lEngine, lServer, 40, 50),
	})
	if got := selfOf(t, tree, lClientRead); got != 0 {
		t.Errorf("client read self = %d, want 0", got)
	}
	if got := selfOf(t, tree, lServer); got != 70 {
		t.Errorf("server self = %d, want 70 (80 inside the read minus 10 engine)", got)
	}
	if u := tree.unattributed(); u != 0 {
		t.Errorf("unattributed = %d, want 0", u)
	}
}

func TestBuildTreePicksMostOverlappingParent(t *testing.T) {
	tree, _ := buildTree([]span{
		sp(lOp, lOp, 0, 100),
		sp(lEngine, lOp, 0, 40),
		sp(lEngine, lOp, 50, 100),
		sp(lTimebase, lEngine, 60, 70),
	})
	if p := tree.parent[3]; p != 2 {
		t.Errorf("timebase parent = span %d, want 2", p)
	}
	if tree.self[1] != 40 || tree.self[2] != 40 {
		t.Errorf("engine self times = %d, %d; want 40, 40", tree.self[1], tree.self[2])
	}
}

func TestBuildTreeOrphansAndMissingRoot(t *testing.T) {
	tree, ok := buildTree([]span{
		sp(lOp, lOp, 0, 10),
		sp(lDurable, lService, 2, 5),
	})
	if !ok || tree.orphans != 1 || tree.parent[1] != 0 {
		t.Errorf("orphan not attached to the root: ok=%v orphans=%d parent=%v", ok, tree.orphans, tree.parent)
	}
	if _, ok := buildTree([]span{sp(lEngine, lOp, 0, 1)}); ok {
		t.Error("tree without a root accepted")
	}
}

func TestUnionLen(t *testing.T) {
	for _, tc := range []struct {
		iv   [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 5}}, 5},
		{[][2]int64{{10, 20}, {0, 5}}, 15},
		{[][2]int64{{0, 10}, {5, 15}, {15, 20}}, 20},
		{[][2]int64{{0, 30}, {5, 10}}, 30},
	} {
		if got := unionLen(tc.iv); got != tc.want {
			t.Errorf("unionLen(%v) = %d, want %d", tc.iv, got, tc.want)
		}
	}
}

func TestSummarizeGroupsByOperation(t *testing.T) {
	spans := []span{
		{op: 2, name: lOp, parent: lOp, start: 100, end: 200, update: true},
		{op: 1, name: lEngine, parent: lOp, start: 5, end: 15},
		{op: 1, name: lOp, parent: lOp, start: 0, end: 20},
		{op: 2, name: lEngine, parent: lOp, start: 110, end: 190},
		{op: 3, name: lEngine, parent: lOp, start: 0, end: 1},
	}
	s := summarize(spans, 4)
	if s.ops != 2 || s.noRoot != 1 || s.dropped != 4 {
		t.Fatalf("ops=%d noRoot=%d dropped=%d", s.ops, s.noRoot, s.dropped)
	}
	if s.rootNS[read] != 20 || s.rootNS[update] != 100 {
		t.Errorf("root time by class = %v", s.rootNS)
	}
	if got := s.share(lEngine); got != 90.0/120 {
		t.Errorf("engine share = %g, want %g", got, 90.0/120)
	}
	if d := s.durs(lEngine); len(d) != 2 || d[0] != 10 || d[1] != 80 {
		t.Errorf("engine durations = %v", d)
	}
}
