package main

import (
	"strings"
	"testing"
)

// TestLSHGateErr checks that a failing gate makes runLSH's error name it,
// and that passing gates give no error.
func TestLSHGateErr(t *testing.T) {
	for _, c := range []struct {
		name              string
		speedupRecall, f1 bool
		want              []string
	}{
		{"both-pass", true, true, nil},
		{"speedup-recall-fails", false, true, []string{"speedup_recall_gate_pass"}},
		{"f1-fails", true, false, []string{"f1_gate_pass"}},
		{"both-fail", false, false, []string{"speedup_recall_gate_pass", "f1_gate_pass"}},
	} {
		r := lshReport{SpeedupRecallGatePass: c.speedupRecall, F1GatePass: c.f1}
		err := r.gateErr()
		if (err == nil) != (c.want == nil) {
			t.Fatalf("%s: gateErr() = %v", c.name, err)
		}
		for _, gate := range c.want {
			if !strings.Contains(err.Error(), gate) {
				t.Errorf("%s: error %q does not name %s", c.name, err, gate)
			}
		}
	}
}
