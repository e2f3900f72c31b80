package main

import (
	"strings"
	"testing"
)

func nodeOpts() options {
	return options{
		Addr: "127.0.0.1:7101", Rows: 1000, Dim: 16, Shard: 0, Of: 3,
		Flushers: 4, Trainers: 1,
	}
}

func TestValidateNodeMode(t *testing.T) {
	if err := nodeOpts().validate(); err != nil {
		t.Fatalf("valid node options rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*options)
		want string
	}{
		{"empty addr", func(o *options) { o.Addr = " " }, "-addr"},
		{"zero of", func(o *options) { o.Of = 0 }, "-of"},
		{"zero flushers", func(o *options) { o.Flushers = 0 }, "-flushers"},
		{"zero trainers", func(o *options) { o.Trainers = 0 }, "-trainers"},
	}
	for _, tc := range cases {
		o := nodeOpts()
		tc.mut(&o)
		err := o.validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.want)
		}
	}
}

func TestValidateDriverMode(t *testing.T) {
	good := options{Connect: "127.0.0.1:7101, 127.0.0.1:7102", Steps: 100, LR: 0.05}
	if err := good.validate(); err != nil {
		t.Fatalf("valid driver options rejected: %v", err)
	}
	// Driver mode ignores the node-shape flags entirely.
	ignored := good
	ignored.Rows, ignored.Dim, ignored.Of = 0, 0, 0
	if err := ignored.validate(); err != nil {
		t.Fatalf("driver mode should ignore node flags: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*options)
		want string
	}{
		{"blank connect list", func(o *options) { o.Connect = " , " }, "-connect"},
		{"zero steps", func(o *options) { o.Steps = 0 }, "-steps"},
		{"negative batch", func(o *options) { o.Batch = -1 }, "-batch"},
		{"zero lr", func(o *options) { o.LR = 0 }, "-lr"},
	}
	for _, tc := range cases {
		o := good
		tc.mut(&o)
		err := o.validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.want)
		}
	}
}
