package main

import "testing"

// TestFoldPartitionsEpochTime checks the attribution rule on a hand-built
// trace: every instant goes to the innermost (latest-started) span, the
// collection window runs from the end of calibration to the first
// verification, and the self times plus the remainder add up to the epoch.
func TestFoldPartitionsEpochTime(t *testing.T) {
	spans := []span{
		{id: 1, name: epochSpan, start: 0, end: 100},
		{id: 2, name: "manager.epoch", start: 2, end: 90},
		{id: 3, name: "manager.calibrate", start: 5, end: 15},
		{id: 4, name: "worker.epoch", start: 16, end: 80}, // ignored
		{id: 5, name: "worker.train", start: 20, end: 40},
		{id: 6, name: "worker.train", start: 30, end: 50}, // concurrent
		{id: 7, name: "fsio.sync", start: 45, end: 48, bytes: 0},
		{id: 8, name: "verify.submission", start: 55, end: 80},
		{id: 9, name: "verify.reproduce", start: 60, end: 70},
		{id: 10, name: "fsio.append", start: 82, end: 84, bytes: 64},
	}
	pr := foldEpochs(spans, true)
	if pr.epochs != 1 || pr.epochNs[0] != 100 {
		t.Fatalf("epochs = %d %v", pr.epochs, pr.epochNs)
	}
	want := map[string]int64{
		"pool":         2 + 10,      // [0,2) [90,100)
		unattributed:   3 + 2 + 6,   // manager self: [2,5) [80,82) [84,90)
		"calibrate":    10,          // [5,15)
		"collect":      5 + 5,       // [15,20) [50,55)
		"worker_train": 10 + 15 + 2, // [20,30) then the later start: [30,45) [48,50)
		"fsio":         3 + 2,       // [45,48) [82,84)
		"verify":       5 + 10,      // [55,60) [70,80)
		"reexec":       10,          // [60,70)
	}
	var sum int64
	for layer, ns := range pr.self {
		sum += ns
		if ns != want[layer] {
			t.Errorf("self[%s] = %d, want %d", layer, ns, want[layer])
		}
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the epoch's 100", sum)
	}
	if pr.total[collectSpan] != 55-15 {
		t.Errorf("collection window = %d, want 40", pr.total[collectSpan])
	}
	if pr.total["worker.train"] != 40 || pr.count["worker.train"] != 2 {
		t.Errorf("worker.train total %d over %d spans", pr.total["worker.train"], pr.count["worker.train"])
	}
	if pr.bytes["fsio.append"] != 64 {
		t.Errorf("append bytes = %d", pr.bytes["fsio.append"])
	}
}
