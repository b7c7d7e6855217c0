package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"rpol/internal/obs"
)

// TestWrappersMeasureTheSameProgram runs every workload briefly with and
// without the tracing wrappers from one seed: verdicts, the global model
// after every epoch and the hub's metered bytes must be identical, or the
// traced run would be measuring a different program.
func TestWrappersMeasureTheSameProgram(t *testing.T) {
	const epochs = 3
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			var sink bytes.Buffer
			tr := obs.NewTracer(&sink, obs.NewWallClock())
			tc := &tracing{tr: tr, obs: obs.NewObserver(obs.NewRegistry(), tr)}
			plain, err := w.build(5, filepath.Join(dir, "plain"), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer plain.close()
			traced, err := w.build(5, filepath.Join(dir, "traced"), tc)
			if err != nil {
				t.Fatal(err)
			}
			defer traced.close()
			pb0, pm0 := plain.hubTraffic()
			tb0, tm0 := traced.hubTraffic()
			for e := 0; e < epochs; e++ {
				a, err := plain.runEpoch()
				if err != nil {
					t.Fatal(err)
				}
				span := tr.Start(nil, epochSpan)
				b, err := traced.runEpoch()
				span.End()
				if err != nil {
					t.Fatal(err)
				}
				if a != b {
					t.Errorf("epoch %d: untraced %+v, traced %+v", e, a, b)
				}
				if da, db := digest(plain.global()), digest(traced.global()); da != db {
					t.Errorf("epoch %d: global model %016x untraced, %016x traced", e, da, db)
				}
			}
			pb1, pm1 := plain.hubTraffic()
			tb1, tm1 := traced.hubTraffic()
			if pb1-pb0 != tb1-tb0 || pm1-pm0 != tm1-tm0 {
				t.Errorf("hub carried %d B in %d messages untraced, %d B in %d traced", pb1-pb0, pm1-pm0, tb1-tb0, tm1-tm0)
			}
			if w.name == "tcp-honest" && pb1 == pb0 {
				t.Error("tcp-honest metered no hub traffic")
			}
			if err := tr.Err(); err != nil {
				t.Fatal(err)
			}
			events, err := obs.ReadEvents(&sink)
			if err != nil {
				t.Fatal(err)
			}
			spans := spansFrom(events)
			names := map[string]bool{}
			for _, s := range spans {
				names[s.name] = true
			}
			_, inPool := traced.(*poolInstance)
			pr := foldEpochs(spans, inPool)
			if pr.epochs != epochs {
				t.Fatalf("folded %d epochs, ran %d", pr.epochs, epochs)
			}
			var wall, attributed int64
			for _, ns := range pr.epochNs {
				wall += ns
			}
			for layer, ns := range pr.self {
				if layer != unattributed {
					attributed += ns
				}
			}
			if rest := wall - attributed; rest != pr.self[unattributed] || float64(rest) > maxUnattributed*float64(wall) {
				t.Errorf("layers cover %d of %d ns; the unattributed %d ns must stay below %.0f%%",
					attributed, wall, rest, 100*maxUnattributed)
			}
			want := []string{"manager.epoch", "manager.calibrate", "verify.submission", "verify.reproduce", "verify.compare"}
			switch w.name {
			case "tcp-honest":
				want = append(want, "wire.task", "wire.open", "served.task", "served.open", "netsim.send", "netsim.recv", "fsio.atomic_write", "worker.train")
			case "pool-journal":
				want = append(want, "fsio.append", "fsio.sync", "fsio.atomic_write", "fsio.read", "worker.train")
			}
			for _, n := range want {
				if !names[n] {
					t.Errorf("traced run recorded no %q span", n)
				}
			}
		})
	}
}
