package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// good returns a valid flag set; tests break one field at a time.
func good() options {
	return options{
		Addr: ":8080", Checkpoint: "x.ckpt", Level: "stale",
		statFile: func(string) error { return nil },
	}
}

func TestValidateAccepts(t *testing.T) {
	cases := []func(*options){
		func(o *options) {},
		func(o *options) { o.Level = "fresh" },
		func(o *options) { o.Level = "bounded" },
		func(o *options) { o.Level = "bounded(3)" },
		func(o *options) { o.LoadGen = time.Second },
		func(o *options) { o.LoadGen = time.Second; o.Addr = "" },
		func(o *options) { o.Drain = 5 * time.Second },
		func(o *options) { o.LoadGen = time.Second; o.Rate = 5000 },
		func(o *options) { o.Index = "ivf" },
		func(o *options) { o.Index = "flat" },
		func(o *options) { o.Checkpoint = ""; o.Shards = "127.0.0.1:7101,127.0.0.1:7102" },
		func(o *options) { o.Checkpoint = ""; o.Shards = "h:1"; o.LoadGen = time.Second },
	}
	for i, mod := range cases {
		o := good()
		mod(&o)
		if _, _, err := validate(o); err != nil {
			t.Errorf("case %d: unexpected error: %v", i, err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*options)
		want string
	}{
		{"bad level", func(o *options) { o.Level = "eventual" }, "-level"},
		{"negative bound", func(o *options) { o.Level = "bounded(-1)" }, "-level"},
		{"garbage bound", func(o *options) { o.Level = "bounded(x)" }, "-level"},
		{"no checkpoint", func(o *options) { o.Checkpoint = "" }, "-checkpoint"},
		{"checkpoint and shards", func(o *options) { o.Shards = "h:1" }, "mutually exclusive"},
		{"blank shards list", func(o *options) { o.Checkpoint = ""; o.Shards = " , " }, "-shards"},
		{"ivf over shards", func(o *options) { o.Checkpoint = ""; o.Shards = "h:1"; o.Index = "ivf" }, "-index=ivf"},
		{"ivf on a follower", func(o *options) { o.Checkpoint = ""; o.Follow = "log"; o.Index = "ivf" }, "-index=ivf"},
		{"cold tier over shards", func(o *options) { o.Checkpoint = ""; o.Shards = "h:1"; o.ColdTier = true }, "-cold-tier"},
		{"promote-after without follow", func(o *options) { o.PromoteAfter = time.Second }, "-follow"},
		{"negative wait-for-log", func(o *options) { o.Checkpoint = ""; o.Follow = "log"; o.WaitForLog = -time.Second }, "-wait-for-log"},
		{"stat failure", func(o *options) { o.statFile = func(string) error { return os.ErrNotExist } }, "-checkpoint"},
		{"negative loadgen", func(o *options) { o.LoadGen = -time.Second }, "-loadgen"},
		{"no addr no loadgen", func(o *options) { o.Addr = "" }, "-addr"},
		{"negative drain", func(o *options) { o.Drain = -time.Second }, "-drain"},
		{"negative rate", func(o *options) { o.LoadGen = time.Second; o.Rate = -1 }, "-rate"},
		{"rate without loadgen", func(o *options) { o.Rate = 100 }, "-rate"},
		{"bad index", func(o *options) { o.Index = "hnsw" }, "-index"},
	}
	for _, tc := range cases {
		o := good()
		tc.mod(&o)
		_, _, err := validate(o)
		if err == nil {
			t.Errorf("%s: validate accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestValidateMissingCheckpoint uses the real os.Stat path: a file that
// exists passes, one that does not is rejected before anything is opened.
func TestValidateMissingCheckpoint(t *testing.T) {
	dir := t.TempDir()
	present := filepath.Join(dir, "ok.ckpt")
	if err := os.WriteFile(present, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	o := good()
	o.statFile = nil
	o.Checkpoint = present
	if _, _, err := validate(o); err != nil {
		t.Fatalf("existing checkpoint rejected: %v", err)
	}
	o.Checkpoint = filepath.Join(dir, "absent.ckpt")
	if _, _, err := validate(o); err == nil {
		t.Fatal("missing checkpoint accepted")
	}
}

func TestValidateLevelValue(t *testing.T) {
	o := good()
	o.Level = "bounded(7)"
	lvl, _, err := validate(o)
	if err != nil {
		t.Fatal(err)
	}
	if lvl.String() != "bounded(7)" {
		t.Fatalf("level = %s, want bounded(7)", lvl)
	}
}
