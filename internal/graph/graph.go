// Package graph provides the graph-learning substrate the paper's
// introduction motivates (node/edge-ID embeddings, GraphSAGE-style
// training [21]): synthetic power-law graphs and the neighbor sampling
// that turns them into embedding-lookup batches. Together with
// model.GNNScorer and runtime.NewGNN it forms the third application
// family next to recommendation and knowledge-graph embedding.
package graph

import (
	"fmt"
	"math/rand"
)

// Graph is an undirected graph over nodes 0..N-1 with adjacency lists.
type Graph struct {
	adj   [][]uint64
	edges int64
}

// Generate builds a synthetic power-law graph by preferential attachment
// (Barabási-Albert): each new node attaches to `attach` existing nodes
// sampled proportionally to degree, giving the heavy-tailed degree
// distribution real graphs (and the paper's datasets) exhibit.
func Generate(seed int64, nodes int, attach int) (*Graph, error) {
	if nodes < 2 {
		return nil, fmt.Errorf("graph: need at least 2 nodes, got %d", nodes)
	}
	if attach < 1 {
		return nil, fmt.Errorf("graph: attach must be ≥ 1, got %d", attach)
	}
	if attach >= nodes {
		return nil, fmt.Errorf("graph: attach %d must be below nodes %d", attach, nodes)
	}
	g := &Graph{adj: make([][]uint64, nodes)}
	rng := rand.New(rand.NewSource(seed))
	// endpoints holds every edge endpoint; sampling uniformly from it is
	// sampling nodes proportionally to degree.
	endpoints := make([]uint64, 0, 2*nodes*attach)
	// Seed clique over the first attach+1 nodes.
	for i := 0; i <= attach; i++ {
		for j := i + 1; j <= attach; j++ {
			g.addEdge(uint64(i), uint64(j))
			endpoints = append(endpoints, uint64(i), uint64(j))
		}
	}
	for v := attach + 1; v < nodes; v++ {
		seen := make(map[uint64]bool, attach)
		for len(seen) < attach {
			u := endpoints[rng.Intn(len(endpoints))]
			if u == uint64(v) || seen[u] {
				// Fall back to uniform to guarantee progress on tiny graphs.
				u = uint64(rng.Intn(v))
				if u == uint64(v) || seen[u] {
					continue
				}
			}
			seen[u] = true
			g.addEdge(uint64(v), u)
			endpoints = append(endpoints, uint64(v), u)
		}
	}
	return g, nil
}

func (g *Graph) addEdge(u, v uint64) {
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	g.edges++
}

// Nodes returns the node count.
func (g *Graph) Nodes() int { return len(g.adj) }

// Edges returns the undirected edge count.
func (g *Graph) Edges() int64 { return g.edges }

// Sampler draws training batches from a graph: positive edges with
// sampled neighborhoods (GraphSAGE-style fixed fan-out) plus uniform
// negative nodes.
type Sampler struct {
	g      *Graph
	rng    *rand.Rand
	fanout int
}

// NewSampler builds a sampler with the given neighbor fan-out.
func NewSampler(g *Graph, seed int64, fanout int) (*Sampler, error) {
	if fanout < 1 {
		return nil, fmt.Errorf("graph: fanout must be ≥ 1, got %d", fanout)
	}
	return &Sampler{g: g, rng: rand.New(rand.NewSource(seed)), fanout: fanout}, nil
}

// Fanout returns the per-node neighbor sample size.
func (s *Sampler) Fanout() int { return s.fanout }

// SampleEdge draws one existing edge uniformly by degree-weighted endpoint
// choice (endpoint u picked ∝ degree, then a uniform incident edge — which
// is exactly uniform over edge slots).
func (s *Sampler) SampleEdge() (u, v uint64) {
	for {
		u = uint64(s.rng.Intn(s.g.Nodes()))
		ns := s.g.adj[u]
		if len(ns) > 0 {
			return u, ns[s.rng.Intn(len(ns))]
		}
	}
}

// SampleNeighbors appends up to fanout sampled neighbors of u to dst
// (with replacement, the GraphSAGE convention; isolated nodes contribute
// themselves so shapes stay rectangular).
func (s *Sampler) SampleNeighbors(u uint64, dst []uint64) []uint64 {
	ns := s.g.adj[u]
	for i := 0; i < s.fanout; i++ {
		if len(ns) == 0 {
			dst = append(dst, u)
			continue
		}
		dst = append(dst, ns[s.rng.Intn(len(ns))])
	}
	return dst
}

// Batch is one GNN training batch: Edges positive (u, v) pairs, one
// uniform negative node per positive, and fanout sampled neighbors per
// endpoint and per negative.
type Batch struct {
	U, V, Neg             []uint64
	UNbrs, VNbrs, NegNbrs []uint64 // len = Edges × fanout each
	Fanout                int
}

// SampleBatch draws a batch of `edges` positives with negatives and
// neighborhoods.
func (s *Sampler) SampleBatch(edges int) Batch {
	b := Batch{Fanout: s.fanout}
	for i := 0; i < edges; i++ {
		u, v := s.SampleEdge()
		neg := uint64(s.rng.Intn(s.g.Nodes()))
		b.U = append(b.U, u)
		b.V = append(b.V, v)
		b.Neg = append(b.Neg, neg)
		b.UNbrs = s.SampleNeighbors(u, b.UNbrs)
		b.VNbrs = s.SampleNeighbors(v, b.VNbrs)
		b.NegNbrs = s.SampleNeighbors(neg, b.NegNbrs)
	}
	return b
}

// AllKeys appends every embedding key the batch touches to dst.
func (b Batch) AllKeys(dst []uint64) []uint64 {
	dst = append(dst, b.U...)
	dst = append(dst, b.V...)
	dst = append(dst, b.Neg...)
	dst = append(dst, b.UNbrs...)
	dst = append(dst, b.VNbrs...)
	dst = append(dst, b.NegNbrs...)
	return dst
}
