package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"syscall"

	"rpol/internal/obs"
)

const (
	// setups is how many times a run constructs the workload; setup_s is
	// their median. All but two of the constructions are spread over the
	// measured loop, so setup_s samples the host over the whole run like
	// the epoch timings do, not only in its first second.
	setups = 21
	// refEpochs is the fixed epoch count at which every instance of one
	// seed must hold the same global model.
	refEpochs = 5
	// resumeEpochs is the sealed-epoch count resume_s reopens.
	resumeEpochs = 10
	// maxLoopSeconds bounds a measured loop that cannot reach its minimum
	// epoch count, so a run always ends in bounded time.
	maxLoopSeconds = 120
	// resumes is how many times the journaled workload reopens its journal;
	// resume_s is their median.
	resumes = 3
)

// seconds converts clock nanoseconds.
func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// checkEpoch counts an epoch's submissions and those with a wrong verdict.
// A wrong verdict is the protocol's own detection error, counted against
// the attempts; it does not make the run's outputs incorrect.
//
// Only epochs every run of a seed makes are counted: the fixed warm-up and
// resume epochs and the first minimum-count epochs of a timed loop. Which
// epochs lie beyond those depends on how fast the host ran, so counting
// them would make attempted and failed differ between runs of the same
// seed. A wrong verdict in an uncounted epoch is still logged.
func checkEpoch(res *result, cfg runConfig, inst string, epoch int, out epochOut, count bool) {
	if count {
		res.Attempted += out.attempted
		res.Failed += out.failed
	}
	if out.failed > 0 {
		note := ""
		if !count {
			note = ", uncounted"
		}
		fmt.Fprintf(cfg.log, "perfbench: failed submissions: %s epoch %d: %s (of %d%s)\n",
			inst, epoch, out.failure, out.attempted, note)
	}
}

// segmentEpochs is the length of one training run. A run trains the
// workload's model from scratch for this many epochs, then starts over on
// a fresh pool seeded from the next segment index. Bounding the training
// run keeps the regime the benchmark measures (a model still learning)
// independent of how fast the program is: a time-bounded loop over one
// ever-longer run would push faster programs into the converged regime.
const segmentEpochs = 40

// segmentSeed derives the seed of training run k from the workload seed.
func segmentSeed(seed int64, k int) int64 { return seed*1000 + int64(k) }

// trainingRuns drives consecutive training runs of one workload. It hands
// out the instance the next epoch runs on, rotating to a fresh instance
// every segmentEpochs epochs outside any timed section.
type trainingRuns struct {
	cfg    runConfig
	tc     *tracing
	label  string
	inst   instance
	seg    int // index of inst's training run
	epochs int // epochs run on inst

	// hub traffic of closed instances, and inst's traffic when it started
	bytes, messages   int64
	bytes0, messages0 int64
}

// adopt makes inst the current training run.
func (r *trainingRuns) adopt(inst instance) {
	r.inst = inst
	r.bytes0, r.messages0 = inst.hubTraffic()
}

// ready returns the instance the next epoch runs on.
func (r *trainingRuns) ready() (instance, error) {
	if r.inst != nil && r.epochs < segmentEpochs {
		return r.inst, nil
	}
	if r.inst != nil {
		if err := r.closeCurrent(); err != nil {
			return nil, err
		}
		r.seg++
	}
	dir := r.cfg.subdir(fmt.Sprintf("%s%d", r.label, r.seg))
	inst, err := r.cfg.w.build(segmentSeed(r.cfg.seed, r.seg), dir, r.tc)
	if err != nil {
		return nil, fmt.Errorf("%s run %d setup: %w", r.label, r.seg, err)
	}
	r.adopt(inst)
	r.epochs = 0
	return inst, nil
}

// closeCurrent shuts the current instance down and removes its files.
func (r *trainingRuns) closeCurrent() error {
	b, m := r.inst.hubTraffic()
	r.bytes += b - r.bytes0
	r.messages += m - r.messages0
	err := r.inst.close()
	r.inst = nil
	if rerr := os.RemoveAll(r.cfg.subdir(fmt.Sprintf("%s%d", r.label, r.seg))); err == nil {
		err = rerr
	}
	return err
}

// traffic is the hub traffic of every run so far.
func (r *trainingRuns) traffic() (bytes, messages int64) {
	bytes, messages = r.bytes, r.messages
	if r.inst != nil {
		b, m := r.inst.hubTraffic()
		bytes += b - r.bytes0
		messages += m - r.messages0
	}
	return bytes, messages
}

func (r *trainingRuns) close() {
	if r.inst != nil {
		_ = r.inst.close()
	}
}

// runMeasured is the untraced run that gives the end-to-end metrics:
//
//  1. construct a reference instance, which runs refEpochs epochs as
//     warm-up and records the reference global model, and the instance
//     that starts the measured loop;
//  2. run epochs in a closed loop, each starting when the previous one
//     returned, for the measured duration and at least until the logged
//     p90 has minTail epochs beyond it; between the epochs of the first
//     minEpochs, construct and close a spare instance at even intervals
//     until the run has constructed the workload `setups` times (setup_s
//     is the median of all constructions);
//  3. check the model after refEpochs against the reference and, on the
//     journaled workload, that the last training run resumes from its
//     journal with what it sealed.
func runMeasured(cfg runConfig, res *result) error {
	clock := obs.NewWallClock()
	seed0 := segmentSeed(cfg.seed, 0)
	var setupNs []float64
	build := func(name string) (instance, error) {
		runtime.GC() // start each construction from the same collected heap
		t0 := clock.Now()
		inst, err := cfg.w.build(seed0, cfg.subdir(name), nil)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", name, err)
		}
		setupNs = append(setupNs, float64(clock.Now()-t0))
		return inst, nil
	}

	ref, err := build("ref")
	if err != nil {
		return err
	}
	for e := 0; e < refEpochs; e++ {
		out, err := ref.runEpoch()
		if err != nil {
			_ = ref.close()
			return fmt.Errorf("reference epoch %d: %w", e, err)
		}
		checkEpoch(res, cfg, "reference", e, out, true)
	}
	refDigest := digest(ref.global())
	if err := ref.close(); err != nil {
		return fmt.Errorf("reference close: %w", err)
	}
	first, err := build("run0")
	if err != nil {
		return err
	}
	runs := &trainingRuns{cfg: cfg, label: "run"}
	runs.adopt(first)
	defer runs.close()

	minEpochs := minSamplesFor(0.9)
	spareEvery := minEpochs / (setups - 2)
	var (
		epochSec   []float64
		examples   int64
		counted    epochOut // counts over the first minEpochs epochs
		accuracy   float64
		ms0, ms1   runtime.MemStats
		spareAlloc uint64 // allocated by the spare constructions
	)
	spare := func(e int) error {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		inst, err := build(fmt.Sprintf("spare%d", e))
		if err != nil {
			return err
		}
		if err := inst.close(); err != nil {
			return fmt.Errorf("spare close: %w", err)
		}
		runtime.ReadMemStats(&after)
		spareAlloc += after.TotalAlloc - before.TotalAlloc
		return nil
	}
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := clock.Now()
	deadline := start + int64(cfg.seconds)*1e9
	for e := 0; clock.Now() < deadline || e < minEpochs; e++ {
		if clock.Now()-start > maxLoopSeconds*1e9 {
			return fmt.Errorf("%w: %d of %d epochs in %d s", errTooSlow, e, minEpochs, maxLoopSeconds)
		}
		inst, err := runs.ready()
		if err != nil {
			return err
		}
		t0 := clock.Now()
		out, err := inst.runEpoch()
		dt := clock.Now() - t0
		if err != nil {
			return fmt.Errorf("epoch %d: %w", e, err)
		}
		runs.epochs++
		checkEpoch(res, cfg, "measured", e, out, e < minEpochs)
		epochSec = append(epochSec, seconds(dt))
		examples += out.trainedExamples
		if e < minEpochs {
			counted.verifyCommBytes += out.verifyCommBytes
			counted.reexecSteps += out.reexecSteps
		}
		if (e+1)%spareEvery == 0 && len(setupNs) < setups {
			if err := spare(e); err != nil {
				return err
			}
		}
		switch e + 1 {
		case refEpochs:
			if got := digest(inst.global()); got != refDigest {
				res.fail(cfg.log, "global model after %d epochs is %016x, the reference instance of the same seed had %016x",
					refEpochs, got, refDigest)
			}
		case segmentEpochs:
			if accuracy, err = inst.accuracy(); err != nil {
				return fmt.Errorf("accuracy: %w", err)
			}
		}
	}
	runtime.ReadMemStats(&ms1)
	n := len(epochSec)

	fmt.Fprintf(cfg.log, "perfbench: %s seed %d: %d measured epochs in %d training runs; model after %d epochs %016x; accuracy after %d %.4f\n",
		cfg.w.name, cfg.seed, n, runs.seg+1, refEpochs, refDigest, segmentEpochs, accuracy)

	if cfg.w.journaled {
		pi := runs.inst.(*poolInstance)
		sealedWant, want := runs.epochs, digest(pi.global())
		if err := pi.close(); err != nil {
			return fmt.Errorf("close: %w", err)
		}
		runs.inst = nil
		if err := checkResume(cfg, res, pi, sealedWant, want); err != nil {
			return err
		}
	}

	p50, _ := percentile(epochSec, 0.5)
	// The p90 is logged, not reported: on pool-journal it carries the
	// shared disk's fsync tail, and its spread between runs reached the
	// largest bound a metric may have.
	p90, beyond := percentile(epochSec, 0.9)
	fmt.Fprintf(cfg.log, "perfbench: epoch p50 %.4f s, p90 %.4f s with %d of %d epochs beyond it\n", p50, p90, beyond, n)
	total := 0.0
	for _, s := range epochSec {
		total += s
	}
	res.set("setup_s", seconds(int64(median(setupNs))), "s")
	res.set("epoch_s.p50", p50, "s")
	res.set("samples_per_s", float64(examples)/total, "examples/s")
	res.set("verify_comm_bytes_per_epoch", float64(counted.verifyCommBytes)/float64(minEpochs), "B")
	res.set("reexec_steps_per_epoch", float64(counted.reexecSteps)/float64(minEpochs), "count")
	res.set("alloc_bytes_per_epoch", float64(ms1.TotalAlloc-ms0.TotalAlloc-spareAlloc)/float64(n), "B")
	res.set("max_rss_bytes", float64(maxRSS()), "B")
	res.set("final_accuracy", accuracy, "ratio")
	return nil
}

// checkResume reopens a closed journaled pool and checks that it reports
// the sealed epoch count and the last seal's global digest, and holds that
// model.
func checkResume(cfg runConfig, res *result, pi *poolInstance, sealed int, want uint64) error {
	got, sealDigest, model, err := pi.resume(nil)
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	if got != sealed || sealDigest != want || model != want {
		res.fail(cfg.log, "resumed pool reports %d sealed epochs, seal digest %016x, model %016x; want %d and %016x",
			got, sealDigest, model, sealed, want)
	}
	return nil
}

// maxRSS is the process's peak resident set in bytes.
func maxRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024 // Linux reports KiB
}

// runTraced is the traced run that gives the per-layer metrics. It builds
// the workload twice from the same seed, once untraced and once with every
// wrapper and the program's own spans on a wall clock, and alternates
// epochs between the two for the measured duration. Both must hold the
// same global model after every epoch: the wrappers must not change what
// the program computes. Epoch wall time of the untraced twin against the
// traced one is the tracing overhead.
func runTraced(cfg runConfig, res *result) error {
	clock := obs.NewWallClock()
	var sink bytes.Buffer
	reg := obs.NewRegistry()
	tr := obs.NewTracer(&sink, clock)
	tc := &tracing{tr: tr, obs: obs.NewObserver(reg, tr)}

	plain := &trainingRuns{cfg: cfg, label: "plain"}
	defer plain.close()
	traced := &trainingRuns{cfg: cfg, tc: tc, label: "traced"}
	defer traced.close()

	minEpochs := minSamplesFor(0.5)
	var (
		plainSec, tracedSec []float64
		reexecSteps         int
		gcCycles            uint32
		gcPauseNs           uint64
		ms0, ms1            runtime.MemStats
	)
	start := clock.Now()
	deadline := start + int64(cfg.seconds)*1e9
	for e := 0; clock.Now() < deadline || e < minEpochs; e++ {
		if clock.Now()-start > maxLoopSeconds*1e9 {
			return fmt.Errorf("%w: %d of %d epochs in %d s", errTooSlow, e, minEpochs, maxLoopSeconds)
		}
		p, err := plain.ready()
		if err != nil {
			return err
		}
		t0 := clock.Now()
		out, err := p.runEpoch()
		plainSec = append(plainSec, seconds(clock.Now()-t0))
		if err != nil {
			return fmt.Errorf("untraced epoch %d: %w", e, err)
		}
		plain.epochs++
		checkEpoch(res, cfg, "untraced", e, out, e < minEpochs)

		t, err := traced.ready()
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&ms0)
		t0 = clock.Now()
		s := tr.Start(nil, epochSpan)
		out, err = t.runEpoch()
		s.End()
		tracedSec = append(tracedSec, seconds(clock.Now()-t0))
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return fmt.Errorf("traced epoch %d: %w", e, err)
		}
		traced.epochs++
		checkEpoch(res, cfg, "traced", e, out, e < minEpochs)
		reexecSteps += out.reexecSteps
		gcCycles += ms1.NumGC - ms0.NumGC
		gcPauseNs += ms1.PauseTotalNs - ms0.PauseTotalNs

		if a, b := digest(p.global()), digest(t.global()); a != b {
			res.fail(cfg.log, "epoch %d: traced model %016x differs from untraced %016x", e, b, a)
		}
	}
	if err := tr.Err(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	hubBytes, hubMsgs := traced.traffic()
	n := float64(len(tracedSec))
	// The registry belongs to the traced runs alone, so its counters are the
	// traced epochs' totals.
	counter := func(c string) float64 { return float64(reg.Counter(c).Value()) }
	_, inPool := traced.inst.(*poolInstance)

	events, err := obs.ReadEvents(&sink)
	if err != nil {
		return err
	}
	pr := foldEpochs(spansFrom(events), inPool)
	if pr.epochs != len(tracedSec) {
		return fmt.Errorf("trace holds %d epochs, ran %d", pr.epochs, len(tracedSec))
	}
	var epochNs int64
	for _, ns := range pr.epochNs {
		epochNs += ns
	}
	per := func(ns int64) float64 { return seconds(ns) / n }
	count := func(name string) float64 { return float64(pr.count[name]) / n }
	total := func(name string) float64 { return per(pr.total[name]) }

	if inPool {
		res.set("pool.eval_s", per(pr.total[epochSpan]-pr.total["manager.epoch"]), "s")
	} else {
		res.set("pool.eval_s", 0, "s")
	}
	res.set("rpol.calibrate_s", total("manager.calibrate"), "s")
	res.set("rpol.collect_s", total(collectSpan), "s")
	res.set("rpol.verify_s", total("verify.submission"), "s")
	res.set("rpol.reexec_s", total("verify.reproduce"), "s")
	res.set("rpol.compare_s", total("verify.compare"), "s")
	res.set("rpol.aggregate_s", total("manager.aggregate"), "s")
	res.set("rpol.worker_train_s", total("worker.train"), "s")
	res.set("rpol.worker_commit_s", total("worker.commit"), "s")

	executed := count("verify.reproduce")
	accounted := float64(reexecSteps) / checkpointEvery / n
	res.set("rpol.reexec_steps", float64(reexecSteps)/n, "count")
	res.set("rpol.intervals_reexecuted", executed, "count")
	res.set("rpol.intervals_accounted", accounted, "count")
	res.set("rpol.reexec_useful_ratio", ratio(accounted, executed), "ratio")
	compares, misses := counter("rpol_lsh_compares_total"), counter("rpol_lsh_misses_total")
	res.set("rpol.lsh_misses", misses/n, "count")
	res.set("rpol.double_checks", counter("rpol_double_checks_total")/n, "count")
	res.set("rpol.lsh_match_ratio", ratio(compares-misses, compares), "ratio")
	res.set("rpol.commit_bytes", counter("rpol_commit_bytes_total")/n, "B")
	if pr.count["wire.open"] > 0 {
		res.set("rpol.opens", count("wire.open"), "count")
		res.set("rpol.open_s", total("wire.open"), "s")
	} else {
		// In-process workers open checkpoints without an interface the
		// benchmark can wrap: every re-executed interval opened its input
		// and every double-check its output, and the opens and their
		// checks are the verifier's own (self) time.
		res.set("rpol.opens", executed+counter("rpol_double_checks_total")/n, "count")
		res.set("rpol.open_s", per(pr.self["verify"]), "s")
	}

	res.set("wire.task_overhead_s", per(pr.total["wire.task"]-pr.total["served.task"]), "s")
	res.set("wire.open_overhead_s", per(pr.total["wire.open"]-pr.total["served.open"]), "s")
	res.set("netsim.sends", count("netsim.send"), "count")
	res.set("netsim.send_s", total("netsim.send"), "s")
	res.set("netsim.recv_wait_s", total("netsim.recv"), "s")
	res.set("netsim.messages", float64(hubMsgs)/n, "count")
	res.set("netsim.bytes", float64(hubBytes)/n, "B")

	res.set("fsio.syncs", count("fsio.sync"), "count")
	res.set("fsio.sync_s", total("fsio.sync"), "s")
	res.set("fsio.append_s", total("fsio.append"), "s")
	res.set("fsio.append_bytes", float64(pr.bytes["fsio.append"])/n, "B")
	res.set("fsio.atomic_writes", count("fsio.atomic_write"), "count")
	res.set("fsio.atomic_write_s", total("fsio.atomic_write"), "s")
	res.set("fsio.atomic_bytes", float64(pr.bytes["fsio.atomic_write"])/n, "B")
	res.set("fsio.read_s", total("fsio.read"), "s")
	res.set("fsio.read_bytes", float64(pr.bytes["fsio.read"])/n, "B")

	res.set("go.gc_cycles", float64(gcCycles)/n, "count")
	res.set("go.gc_pause_s", seconds(int64(gcPauseNs))/n, "s")

	for _, layer := range selfLayers {
		res.set("self."+layer+"_s", per(pr.self[layer]), "s")
	}
	res.set("epoch.unattributed_s", per(pr.self[unattributed]), "s")
	rest := ratio(float64(pr.self[unattributed]), float64(epochNs))
	res.set("epoch.unattributed_ratio", rest, "ratio")
	if rest > maxUnattributed {
		fmt.Fprintf(cfg.log, "perfbench: the named layers leave %.1f%% of epoch time unattributed, above the stated %.0f%%\n",
			100*rest, 100*maxUnattributed)
	}
	tracedP50, _ := percentile(tracedSec, 0.5)
	plainP50, _ := percentile(plainSec, 0.5)
	res.set("trace.epoch_s.p50", tracedP50, "s")
	res.set("trace.overhead_ratio", ratio(tracedP50, plainP50), "ratio")

	resume := 0.0
	if cfg.w.journaled {
		if resume, err = timeResume(cfg, res, clock); err != nil {
			return err
		}
	}
	res.set("resume_s", resume, "s")
	return nil
}

// timeResume seals resumeEpochs epochs into a fresh journal and reopens it
// several times; it returns the median time to a resumed, ready pool.
func timeResume(cfg runConfig, res *result, clock obs.Clock) (float64, error) {
	inst, err := cfg.w.build(segmentSeed(cfg.seed, 0), cfg.subdir("resume"), nil)
	if err != nil {
		return 0, fmt.Errorf("resume setup: %w", err)
	}
	for e := 0; e < resumeEpochs; e++ {
		out, err := inst.runEpoch()
		if err != nil {
			_ = inst.close()
			return 0, fmt.Errorf("resume epoch %d: %w", e, err)
		}
		checkEpoch(res, cfg, "resume", e, out, true)
	}
	want := digest(inst.global())
	if err := inst.close(); err != nil {
		return 0, err
	}
	pi := inst.(*poolInstance)
	var times []float64
	for i := 0; i < resumes; i++ {
		t0 := clock.Now()
		if err := checkResume(cfg, res, pi, resumeEpochs, want); err != nil {
			return 0, err
		}
		times = append(times, seconds(clock.Now()-t0))
	}
	return median(times), nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
