package main

import (
	"strings"
	"testing"
	"time"
)

func okOptions() options {
	return options{Engine: "frugal", GPUs: 4, Steps: 200}
}

func TestValidateAcceptsDefaults(t *testing.T) {
	plan, err := validate(okOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Empty() {
		t.Fatalf("empty -fault-plan parsed to a non-empty plan: %s", plan)
	}
}

func TestValidateParsesFaultPlan(t *testing.T) {
	o := okOptions()
	o.FaultPlan = "crash:flusher=0@batch=3;delay:gpu=1@step=5,dur=2ms"
	plan, err := validate(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Events) != 2 {
		t.Fatalf("parsed %d events, want 2: %s", len(plan.Events), plan)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*options)
		want   string // substring of the usage error
	}{
		{"zero gpus", func(o *options) { o.GPUs = 0 }, "-gpus"},
		{"zero steps", func(o *options) { o.Steps = 0 }, "-steps"},
		{"micro and replay", func(o *options) { o.Micro = true; o.Replay = "t.trace" }, "mutually exclusive"},
		{"bad plan syntax", func(o *options) { o.FaultPlan = "explode:flusher=0@batch=1" }, "-fault-plan"},
		{"flusher fault on direct", func(o *options) {
			o.Engine = "direct"
			o.FaultPlan = "crash:flusher=0@batch=1"
		}, "no flusher pool"},
		{"flusher stall on frugal-sync", func(o *options) {
			o.Engine = "frugal-sync"
			o.FaultPlan = "stall:flusher=1@batch=2,dur=5ms"
		}, "no flusher pool"},
		{"gate timeout on direct", func(o *options) {
			o.Engine = "direct"
			o.GateTimeout = time.Second
		}, "no consistency gate"},
		{"max respawns on frugal-sync", func(o *options) {
			o.Engine = "frugal-sync"
			o.MaxRespawns = -1
		}, "-max-respawns"},
	}
	for _, tc := range cases {
		o := okOptions()
		tc.mutate(&o)
		_, err := validate(o)
		if err == nil {
			t.Fatalf("%s: validate accepted invalid flags %+v", tc.name, o)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestValidateAllowsEngineAgnosticFaults pins that delay/hostfail plans —
// meaningful on every engine — pass validation on the write-through ones.
func TestValidateAllowsEngineAgnosticFaults(t *testing.T) {
	for _, engine := range []string{"frugal-sync", "direct"} {
		o := okOptions()
		o.Engine = engine
		o.FaultPlan = "delay:gpu=0@step=3,dur=1ms;hostfail@write=10,count=2"
		if _, err := validate(o); err != nil {
			t.Fatalf("%s rejected an engine-agnostic plan: %v", engine, err)
		}
	}
}
