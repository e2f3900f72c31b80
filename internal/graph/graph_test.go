package graph

import (
	"testing"
	"testing/quick"
)

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(1, 1, 1); err == nil {
		t.Fatal("1 node must error")
	}
	if _, err := Generate(1, 10, 0); err == nil {
		t.Fatal("attach=0 must error")
	}
	if _, err := Generate(1, 5, 5); err == nil {
		t.Fatal("attach ≥ nodes must error")
	}
}

func TestGenerateShape(t *testing.T) {
	g, err := Generate(7, 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.Nodes() != 2000 {
		t.Fatalf("Nodes = %d", g.Nodes())
	}
	// Edges: clique(4)=6 + 3 per remaining node.
	want := int64(6 + 3*(2000-4))
	if g.Edges() != want {
		t.Fatalf("Edges = %d, want %d", g.Edges(), want)
	}
	// Every node connected.
	for u := uint64(0); u < 2000; u++ {
		if len(g.adj[u]) == 0 {
			t.Fatalf("node %d isolated", u)
		}
	}
	// Handshake lemma.
	sum := 0
	for u := uint64(0); u < 2000; u++ {
		sum += len(g.adj[u])
	}
	if int64(sum) != 2*g.Edges() {
		t.Fatalf("degree sum %d != 2×edges %d", sum, 2*g.Edges())
	}
}

func TestGeneratePowerLaw(t *testing.T) {
	g, err := Generate(3, 5000, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Preferential attachment: the max degree must dwarf the mean.
	mean := float64(2*g.Edges()) / float64(g.Nodes())
	maxDeg := 0
	for _, ns := range g.adj {
		maxDeg = max(maxDeg, len(ns))
	}
	if float64(maxDeg) < 8*mean {
		t.Fatalf("max degree %d not heavy-tailed (mean %.1f)", maxDeg, mean)
	}
}

func TestSampler(t *testing.T) {
	g, _ := Generate(5, 500, 3)
	s, err := NewSampler(g, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSampler(g, 1, 0); err == nil {
		t.Fatal("fanout=0 must error")
	}
	if s.Fanout() != 4 {
		t.Fatal("fanout accessor wrong")
	}
	// Sampled edges must exist.
	for i := 0; i < 200; i++ {
		u, v := s.SampleEdge()
		found := false
		for _, n := range g.adj[u] {
			if n == v {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("sampled non-edge (%d,%d)", u, v)
		}
	}
	// Sampled neighbors are actual neighbors.
	nbrs := s.SampleNeighbors(7, nil)
	if len(nbrs) != 4 {
		t.Fatalf("neighbor sample len = %d", len(nbrs))
	}
	adj := map[uint64]bool{}
	for _, n := range g.adj[7] {
		adj[n] = true
	}
	for _, n := range nbrs {
		if !adj[n] {
			t.Fatalf("sampled non-neighbor %d of 7", n)
		}
	}
}

func TestSampleBatchShape(t *testing.T) {
	g, _ := Generate(5, 300, 2)
	s, _ := NewSampler(g, 2, 3)
	b := s.SampleBatch(16)
	if len(b.U) != 16 || len(b.V) != 16 || len(b.Neg) != 16 {
		t.Fatalf("endpoint lens: %d %d %d", len(b.U), len(b.V), len(b.Neg))
	}
	if len(b.UNbrs) != 48 || len(b.VNbrs) != 48 || len(b.NegNbrs) != 48 {
		t.Fatal("neighbor lens wrong")
	}
	keys := b.AllKeys(nil)
	if len(keys) != 16*3+48*3 {
		t.Fatalf("AllKeys len = %d", len(keys))
	}
	for _, k := range keys {
		if k >= uint64(g.Nodes()) {
			t.Fatalf("key %d out of node range", k)
		}
	}
}

// Property: for any valid (nodes, attach), generation yields a connected-
// enough graph with the right edge count and all keys in range.
func TestGenerateProperty(t *testing.T) {
	f := func(rawNodes uint16, rawAttach uint8, seed int64) bool {
		nodes := int(rawNodes%500) + 10
		attach := int(rawAttach%3) + 1
		g, err := Generate(seed, nodes, attach)
		if err != nil {
			return false
		}
		sum := 0
		for u := 0; u < nodes; u++ {
			if len(g.adj[uint64(u)]) == 0 {
				return false
			}
			sum += len(g.adj[uint64(u)])
		}
		return int64(sum) == 2*g.Edges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
