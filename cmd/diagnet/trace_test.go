package main

import (
	"testing"

	"diagnet/internal/netsim"
)

func TestParseFaults(t *testing.T) {
	regions := regionIndex()
	for _, bad := range []string{"loss@", "bogus@GRAV", "loss@XXXX", "loss@GRAV:abc", "loss@GRAV:1:2", "loss"} {
		if got, err := parseFaults(bad, regions); err == nil {
			t.Errorf("%q parsed as %v, want an error", bad, got)
		}
	}
	got, err := parseFaults("loss@GRAV:60, service-delay@amst", regions)
	if err != nil {
		t.Fatal(err)
	}
	want := []scheduledFault{
		{netsim.NewFault(netsim.FaultLoss, netsim.GRAV), 60},
		{netsim.NewFault(netsim.FaultServiceDelay, netsim.AMST), 0},
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("fault %d: got %v, want %v", i, got[i], want[i])
		}
	}
	// simulate's specs are the tick-less form: active from tick 0.
	got, err = parseFaults("loss@GRAV,rate@SING", regions)
	if err != nil || len(got) != 2 || got[0] != (scheduledFault{netsim.NewFault(netsim.FaultLoss, netsim.GRAV), 0}) ||
		got[1] != (scheduledFault{netsim.NewFault(netsim.FaultRate, netsim.SING), 0}) {
		t.Errorf("tick-less specs: %v, %v", got, err)
	}
	if got, err := parseFaults("", regions); err != nil || got != nil {
		t.Errorf("empty spec: %v, %v", got, err)
	}
}
