package main

import (
	"rpol/internal/fsio"
	"rpol/internal/netsim"
	"rpol/internal/obs"
	"rpol/internal/rpol"
	"rpol/internal/tensor"
	"rpol/internal/wire"
)

// The wrappers below record one span per call into a layer the program
// reaches through an interface. They forward every call unchanged; the
// traced run folds their spans together with the program's own.

// tracedEndpoint is the manager's wire.Transport with send and receive
// spans. It keeps every optional surface of the TCP endpoint it wraps:
// without SerializingSender the manager port would silently stop reusing
// its encode buffer and the traced run would measure a different program.
type tracedEndpoint struct {
	ep *netsim.TCPEndpoint
	tr *obs.Tracer
}

var (
	_ wire.PollingTransport  = (*tracedEndpoint)(nil)
	_ wire.SeqTransport      = (*tracedEndpoint)(nil)
	_ wire.SerializingSender = (*tracedEndpoint)(nil)
)

func (t *tracedEndpoint) Send(to, kind string, payload []byte) error {
	s := t.tr.Start(nil, "netsim.send")
	err := t.ep.Send(to, kind, payload)
	s.End()
	return err
}

func (t *tracedEndpoint) SendSeq(to, kind string, seq uint64, payload []byte) error {
	s := t.tr.Start(nil, "netsim.send")
	err := t.ep.SendSeq(to, kind, seq, payload)
	s.End()
	return err
}

func (t *tracedEndpoint) Recv() (netsim.Message, error) {
	s := t.tr.Start(nil, "netsim.recv")
	msg, err := t.ep.Recv()
	s.End()
	return msg, err
}

func (t *tracedEndpoint) TryRecv() (netsim.Message, bool) {
	s := t.tr.Start(nil, "netsim.recv")
	msg, ok := t.ep.TryRecv()
	s.End()
	return msg, ok
}

func (t *tracedEndpoint) SendSerializes() {}

// tracedWorker wraps an rpol.Worker: on the manager side around the
// wire.RemoteWorker proxy (spans "wire.*"), on the worker side around the
// served rpol.HonestWorker (spans "served.*"). The difference between the
// two is what the codec and the transport add to each call.
type tracedWorker struct {
	rpol.Worker
	tr     *obs.Tracer
	prefix string
}

func (w *tracedWorker) RunEpoch(p rpol.TaskParams) (*rpol.EpochResult, error) {
	s := w.tr.Start(nil, w.prefix+".task")
	r, err := w.Worker.RunEpoch(p)
	s.End()
	return r, err
}

func (w *tracedWorker) OpenCheckpoint(idx int) (tensor.Vector, error) {
	s := w.tr.Start(nil, w.prefix+".open")
	v, err := w.Worker.OpenCheckpoint(idx)
	s.End()
	return v, err
}

func (w *tracedWorker) OpenProof(idx int) (rpol.LeafProof, error) {
	s := w.tr.Start(nil, w.prefix+".open")
	lp, err := w.Worker.OpenProof(idx)
	s.End()
	return lp, err
}

// tracedFS is an fsio.FS with a span per operation; byte counts ride on the
// span's end event.
type tracedFS struct {
	fs fsio.FS
	tr *obs.Tracer
}

func bytesAttr(n int) obs.Attr { return obs.Int("bytes", int64(n)) }

func (f *tracedFS) MkdirAll(dir string) error {
	s := f.tr.Start(nil, "fsio.meta")
	err := f.fs.MkdirAll(dir)
	s.End()
	return err
}

func (f *tracedFS) WriteFileAtomic(path string, data []byte) error {
	s := f.tr.Start(nil, "fsio.atomic_write")
	err := f.fs.WriteFileAtomic(path, data)
	s.End(bytesAttr(len(data)))
	return err
}

func (f *tracedFS) ReadFile(path string) ([]byte, error) {
	s := f.tr.Start(nil, "fsio.read")
	data, err := f.fs.ReadFile(path)
	s.End(bytesAttr(len(data)))
	return data, err
}

// Append returns a traced Appender, so journal appends and syncs made
// through the handle are measured too.
func (f *tracedFS) Append(path string) (fsio.Appender, error) {
	s := f.tr.Start(nil, "fsio.meta")
	a, err := f.fs.Append(path)
	s.End()
	if err != nil {
		return nil, err
	}
	return &tracedAppender{a: a, tr: f.tr}, nil
}

func (f *tracedFS) Remove(path string) error {
	s := f.tr.Start(nil, "fsio.meta")
	err := f.fs.Remove(path)
	s.End()
	return err
}

func (f *tracedFS) ReadDir(dir string) ([]string, error) {
	s := f.tr.Start(nil, "fsio.meta")
	names, err := f.fs.ReadDir(dir)
	s.End()
	return names, err
}

func (f *tracedFS) Size(path string) (int64, error) {
	s := f.tr.Start(nil, "fsio.meta")
	n, err := f.fs.Size(path)
	s.End()
	return n, err
}

type tracedAppender struct {
	a  fsio.Appender
	tr *obs.Tracer
}

func (a *tracedAppender) Write(p []byte) (int, error) {
	s := a.tr.Start(nil, "fsio.append")
	n, err := a.a.Write(p)
	s.End(bytesAttr(n))
	return n, err
}

func (a *tracedAppender) Sync() error {
	s := a.tr.Start(nil, "fsio.sync")
	err := a.a.Sync()
	s.End()
	return err
}

func (a *tracedAppender) Close() error {
	s := a.tr.Start(nil, "fsio.meta")
	err := a.a.Close()
	s.End()
	return err
}
