package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"

	"rpol/internal/checkpoint"
	"rpol/internal/dataset"
	"rpol/internal/fsio"
	"rpol/internal/gpu"
	"rpol/internal/modelzoo"
	"rpol/internal/netsim"
	"rpol/internal/nn"
	"rpol/internal/obs"
	"rpol/internal/pool"
	"rpol/internal/rpol"
	"rpol/internal/tensor"
	"rpol/internal/wire"
)

// checkpointEvery is the checkpoint interval of every workload (the pool's
// default). Each workload's step count is a multiple of it, so every
// sampled interval re-executes exactly this many steps.
const checkpointEvery = 5

// tracing carries the traced run's instruments into a workload instance; a
// nil *tracing builds the untraced program.
type tracing struct {
	tr  *obs.Tracer
	obs *obs.Observer
}

func (t *tracing) observer() *obs.Observer {
	if t == nil {
		return nil
	}
	return t.obs
}

// fs returns the filesystem an instance writes through: the real one,
// wrapped with spans when traced.
func (t *tracing) fs() fsio.FS {
	if t == nil {
		return fsio.OS
	}
	return &tracedFS{fs: fsio.OS, tr: t.tr}
}

// epochOut is what the benchmark checks and counts for one verified epoch.
type epochOut struct {
	attempted, failed  int // submissions, and those whose verdict was wrong
	accepted, rejected int
	failure            string
	verifyCommBytes    int64
	reexecSteps        int
	trainedExamples    int64
}

// instance is one constructed deployment of a workload.
type instance interface {
	runEpoch() (epochOut, error)
	global() tensor.Vector
	accuracy() (float64, error)
	// hubTraffic is the TCP hub's metered bytes and messages so far (zero
	// without a hub).
	hubTraffic() (bytes, messages int64)
	close() error
}

// workload is one named input set of the benchmark.
type workload struct {
	name string
	// journaled workloads also check and time resume from the journal.
	journaled bool
	build     func(seed int64, dir string, t *tracing) (instance, error)
}

var workloads = []workload{
	{
		// rpolsim's defaults: the traffic users run today.
		name: "pool-default",
		build: func(seed int64, _ string, t *tracing) (instance, error) {
			return newPoolInstance(poolConfig(seed, 10, ""), t)
		},
	},
	{
		// The examples/distributed deployment: every task, result and
		// opening crosses the binary codec and the TCP transport.
		name:  "tcp-honest",
		build: newTCPInstance,
	},
	{
		// The pool-default mix with every transition fsync'd and every
		// honest checkpoint streamed to disk.
		name:      "pool-journal",
		journaled: true,
		build: func(seed int64, dir string, t *tracing) (instance, error) {
			return newPoolInstance(poolConfig(seed, 30, dir), t)
		},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// poolConfig is rpolsim's default pool with 20 % of each adversary. It
// sets none of the execution knobs (Workers, MerkleCommit), so the pool
// runs whatever the program's defaults are.
func poolConfig(seed int64, steps int, journal string) pool.Config {
	return pool.Config{
		TaskName:      "resnet18-cifar10",
		Scheme:        rpol.SchemeV2,
		NumWorkers:    10,
		Adv1Fraction:  0.2,
		Adv2Fraction:  0.2,
		StepsPerEpoch: steps,
		UseAMLayer:    true,
		Seed:          seed,
		Journal:       journal,
	}
}

type poolInstance struct {
	p     *pool.Pool
	cfg   pool.Config
	batch int64
}

func newPoolInstance(cfg pool.Config, t *tracing) (*poolInstance, error) {
	if cfg.Journal != "" {
		cfg.FS = t.fs()
	}
	cfg.Obs = t.observer()
	p, err := pool.New(cfg)
	if err != nil {
		return nil, err
	}
	return &poolInstance{p: p, cfg: cfg, batch: int64(p.Spec().ProxyBatchSize)}, nil
}

func (pi *poolInstance) runEpoch() (epochOut, error) {
	s, err := pi.p.RunEpoch()
	if err != nil {
		return epochOut{}, err
	}
	return epochOut{
		attempted: pi.cfg.NumWorkers,
		failed:    s.FalseRejections + s.MissedAdversaries + s.AbsentWorkers,
		failure: fmt.Sprintf("%d honest rejected, %d adversaries accepted, %d absent",
			s.FalseRejections, s.MissedAdversaries, s.AbsentWorkers),
		verifyCommBytes: s.VerifyCommBytes,
		reexecSteps:     s.ReexecSteps,
		trainedExamples: s.Phases[obs.PhaseTraining].Steps * pi.batch,
	}, nil
}

func (pi *poolInstance) global() tensor.Vector      { return pi.p.Manager().Global() }
func (pi *poolInstance) accuracy() (float64, error) { return pi.p.TestAccuracy() }
func (pi *poolInstance) hubTraffic() (int64, int64) { return 0, 0 }
func (pi *poolInstance) close() error               { return pi.p.Close() }

// resume reopens the instance's journal. It returns the resumed pool's
// sealed epoch count, the last seal's global digest and the digest of the
// model the resumed manager holds.
func (pi *poolInstance) resume(t *tracing) (sealed int, sealDigest, globalDigest uint64, err error) {
	cfg := pi.cfg
	cfg.Resume = true
	r, err := newPoolInstance(cfg, t)
	if err != nil {
		return 0, 0, 0, err
	}
	defer r.p.Close()
	seals := r.p.Recovered()
	if len(seals) == 0 {
		return r.p.CompletedEpochs(), 0, digest(r.global()), nil
	}
	return r.p.CompletedEpochs(), seals[len(seals)-1].GlobalDigest, digest(r.global()), nil
}

// tcpWorkers is the number of honest workers behind the hub.
const tcpWorkers = 4

// tcpInstance is the examples/distributed deployment: a loopback TCP hub,
// honest workers each behind a wire.WorkerServer with a disk-backed
// checkpoint store, and an rpol.Manager driving wire.RemoteWorkers through
// one manager port.
type tcpInstance struct {
	hub      *netsim.TCPHub
	conn     *netsim.TCPEndpoint   // the manager's
	conns    []*netsim.TCPEndpoint // the worker servers'
	manager  *rpol.Manager
	evalNet  *nn.Network
	testXs   []tensor.Vector
	testYs   []int
	batch    int64
	wg       sync.WaitGroup
	mu       sync.Mutex
	serveErr error
}

func newTCPInstance(seed int64, dir string, t *tracing) (_ instance, err error) {
	hub, err := netsim.NewTCPHub("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ti := &tcpInstance{hub: hub}
	defer func() {
		if err != nil {
			_ = ti.close()
		}
	}()
	spec, err := modelzoo.Get("vgg16-imagenet")
	if err != nil {
		return nil, err
	}
	_, train, test, err := spec.BuildProxy(seed)
	if err != nil {
		return nil, err
	}
	shards, err := train.Partition(tcpWorkers + 1)
	if err != nil {
		return nil, err
	}
	if ti.conn, err = netsim.DialHub(hub.Addr(), "manager"); err != nil {
		return nil, err
	}
	var transport wire.Transport = ti.conn
	if t != nil {
		transport = &tracedEndpoint{ep: ti.conn, tr: t.tr}
	}
	port, err := wire.NewManagerPortOver(transport)
	if err != nil {
		return nil, err
	}
	fs := t.fs()
	profiles := gpu.Profiles()
	workers := make([]rpol.Worker, 0, tcpWorkers)
	shardMap := make(map[string]*dataset.Dataset, tcpWorkers)
	for i := 0; i < tcpWorkers; i++ {
		id := fmt.Sprintf("worker-%02d", i)
		profile := profiles[i%len(profiles)]
		net, err := spec.BuildProxyNet(seed + 1)
		if err != nil {
			return nil, err
		}
		local, err := rpol.NewHonestWorker(id, profile, seed+int64(1000+i), net, shards[i])
		if err != nil {
			return nil, err
		}
		store, err := checkpoint.NewDiskStoreFS(fs, filepath.Join(dir, "ckpt-"+id))
		if err != nil {
			return nil, err
		}
		local.SetStore(store)
		var served rpol.Worker = local
		if t != nil {
			local.SetObserver(t.obs)
			served = &tracedWorker{Worker: local, tr: t.tr, prefix: "served"}
		}
		conn, err := netsim.DialHub(hub.Addr(), id)
		if err != nil {
			return nil, err
		}
		ti.conns = append(ti.conns, conn)
		server, err := wire.NewWorkerServerOver(conn, served)
		if err != nil {
			return nil, err
		}
		ti.wg.Add(1)
		go func() {
			defer ti.wg.Done()
			if err := server.Run(); err != nil {
				ti.mu.Lock()
				ti.serveErr = errors.Join(ti.serveErr, err)
				ti.mu.Unlock()
			}
		}()
		remote, err := wire.NewRemoteWorker(id, profile, port)
		if err != nil {
			return nil, err
		}
		var w rpol.Worker = remote
		if t != nil {
			w = &tracedWorker{Worker: remote, tr: t.tr, prefix: "wire"}
		}
		workers = append(workers, w)
		shardMap[id] = shards[i]
	}
	managerNet, err := spec.BuildProxyNet(seed + 1)
	if err != nil {
		return nil, err
	}
	// The pool's manager settings, minus the pool itself.
	ti.manager, err = rpol.NewManager(rpol.ManagerConfig{
		Address:         "pool-manager",
		Scheme:          rpol.SchemeV2,
		Hyper:           rpol.Hyper{Optimizer: "sgdm", LR: 0.02, BatchSize: spec.ProxyBatchSize},
		StepsPerEpoch:   10,
		CheckpointEvery: checkpointEvery,
		Samples:         3,
		GPU:             gpu.G3090,
		MasterKey:       []byte("pool-manager/nonce-master"),
		Seed:            seed + 7,
		Obs:             t.observer(),
	}, managerNet, workers, shardMap, shards[tcpWorkers])
	if err != nil {
		return nil, err
	}
	if ti.evalNet, err = spec.BuildProxyNet(seed + 1); err != nil {
		return nil, err
	}
	for _, ex := range test.Examples {
		ti.testXs = append(ti.testXs, ex.Features)
		ti.testYs = append(ti.testYs, ex.Label)
	}
	ti.batch = int64(spec.ProxyBatchSize)
	return ti, nil
}

func (ti *tcpInstance) runEpoch() (epochOut, error) {
	r, err := ti.manager.RunEpoch()
	if err != nil {
		return epochOut{}, err
	}
	// Every worker is honest: anything but acceptance is a failure.
	return epochOut{
		attempted:       len(r.Outcomes),
		accepted:        r.Accepted,
		rejected:        r.Rejected,
		failed:          r.Rejected + r.Absent,
		failure:         fmt.Sprintf("%d honest rejected, %d absent", r.Rejected, r.Absent),
		verifyCommBytes: r.VerifyCommBytes,
		reexecSteps:     r.ReexecSteps,
		trainedExamples: r.Phases[obs.PhaseTraining].Steps * ti.batch,
	}, nil
}

func (ti *tcpInstance) global() tensor.Vector { return ti.manager.Global() }

func (ti *tcpInstance) accuracy() (float64, error) {
	if err := ti.evalNet.SetParamVector(ti.manager.Global()); err != nil {
		return 0, err
	}
	return ti.evalNet.Accuracy(ti.testXs, ti.testYs)
}

func (ti *tcpInstance) hubTraffic() (int64, int64) {
	return ti.hub.Meter().Total(), ti.hub.Meter().Messages()
}

// close shuts the deployment down: closing the hub unblocks every worker
// server, which must happen before waiting for them.
func (ti *tcpInstance) close() error {
	if ti.conn != nil {
		_ = ti.conn.Close()
	}
	ti.hub.Close()
	ti.wg.Wait()
	for _, c := range ti.conns {
		_ = c.Close()
	}
	ti.mu.Lock()
	defer ti.mu.Unlock()
	return ti.serveErr
}

// digest is the checksum of a model's wire encoding, as the journal seals
// it.
func digest(v tensor.Vector) uint64 { return fsio.Checksum(v.AppendEncode(nil)) }
