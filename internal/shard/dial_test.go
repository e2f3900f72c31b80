package shard

import (
	"strings"
	"testing"
	"time"
)

// TestDialShardedRefusesMisorderedAddrs lists a 3-node cluster's
// addresses out of order and short of a node: DialSharded must refuse
// both lists, naming the disagreement, and close every connection it
// opened on the way — the servers end with none open.
func TestDialShardedRefusesMisorderedAddrs(t *testing.T) {
	const of = 3
	servers := make([]*Server, of)
	addrs := make([]string, of)
	for i := range servers {
		node, err := NewNode(NodeOptions{Rows: 30, Dim: 4, Shard: i, Of: of, Uncoordinated: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		srv, err := NewServer("127.0.0.1:0", node)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		servers[i], addrs[i] = srv, srv.Addr()
	}
	for _, tc := range []struct {
		name  string
		addrs []string
		want  string
	}{
		{"swapped", []string{addrs[0], addrs[2], addrs[1]}, "reports position 2/3, want 1/3"},
		{"missing", addrs[:2], "reports position 0/3, want 0/2"},
	} {
		st, err := DialSharded(tc.addrs)
		if err == nil {
			st.Close()
			t.Fatalf("%s: DialSharded accepted %v", tc.name, tc.addrs)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want it to say %q", tc.name, err, tc.want)
		}
		for i, srv := range servers {
			if n := waitConns(srv, 0); n != 0 {
				t.Fatalf("%s: server %d still holds %d connections", tc.name, i, n)
			}
		}
	}
	if _, err := DialSharded(nil); err == nil {
		t.Fatal("DialSharded accepted an empty address list")
	}
	st, err := DialSharded(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.NumShards() != of {
		t.Fatalf("composed %d shards, want %d", st.NumShards(), of)
	}
}

// waitConns polls until srv holds want open connections (a client's
// close reaches the server asynchronously) or a deadline passes, and
// returns the last count seen.
func waitConns(srv *Server, want int) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.mu.Lock()
		n := len(srv.conns)
		srv.mu.Unlock()
		if n == want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSplitAddrs(t *testing.T) {
	got := SplitAddrs(" a:1, b:2 ,,c:3 ")
	want := []string{"a:1", "b:2", "c:3"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("SplitAddrs = %q, want %q", got, want)
	}
	if got := SplitAddrs(" , "); len(got) != 0 {
		t.Fatalf("SplitAddrs of a blank list = %q, want none", got)
	}
}

// TestNewNodeRejectsBadShape pins the node-mode shape checks: a node
// needs a table height, a dimension and an index inside its topology.
func TestNewNodeRejectsBadShape(t *testing.T) {
	bad := map[string]NodeOptions{
		"missing rows":       {Rows: 0, Dim: 4, Of: 3, Trainers: 1},
		"missing dim":        {Rows: 100, Dim: 0, Of: 3, Trainers: 1},
		"shard out of range": {Rows: 100, Dim: 4, Shard: 3, Of: 3, Trainers: 1},
		"negative shard":     {Rows: 100, Dim: 4, Shard: -1, Of: 3, Trainers: 1},
	}
	for name, opt := range bad {
		if n, err := NewNode(opt); err == nil {
			n.Close()
			t.Errorf("%s: NewNode accepted %+v", name, opt)
		}
	}
}
