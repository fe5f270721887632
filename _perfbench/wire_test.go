package main

import (
	"context"
	"net"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/strategy"
	"repro/internal/transport"
)

// fakeTransport records calls; broadcastingTransport adds the
// encode-once fast path.
type fakeTransport struct{ sends int }

func (f *fakeTransport) World() int                        { return 3 }
func (f *fakeTransport) Send(src, dst int, p comm.Payload) { f.sends++ }
func (f *fakeTransport) Recv(dst, src int) comm.Payload    { return comm.Payload{} }
func (f *fakeTransport) Close() error                      { return nil }

type broadcastingTransport struct {
	fakeTransport
	broadcasts int
}

func (b *broadcastingTransport) Broadcast(src int, p comm.Payload) { b.broadcasts++ }

func TestTimeTransportKeepsBroadcaster(t *testing.T) {
	plain, _ := timeTransport(&fakeTransport{})
	if _, ok := plain.(comm.Broadcaster); ok {
		t.Error("decorated transport without Broadcast claims comm.Broadcaster")
	}
	inner := &broadcastingTransport{}
	wrapped, stats := timeTransport(inner)
	bc, ok := wrapped.(comm.Broadcaster)
	if !ok {
		t.Fatal("decorator hides the wrapped transport's comm.Broadcaster")
	}
	bc.Broadcast(0, comm.Payload{Bytes: 10})
	wrapped.Send(0, 1, comm.Payload{Bytes: 10})
	if inner.broadcasts != 1 || inner.sends != 1 {
		t.Errorf("inner saw %d broadcasts and %d sends, want 1 and 1", inner.broadcasts, inner.sends)
	}
	if got := stats.totals(); got.Frames != 3 || got.Bytes != 30 {
		t.Errorf("counted %d frames and %d bytes, want 3 and 30 (a broadcast reaches 2 peers)", got.Frames, got.Bytes)
	}
}

// wireRun is one rank's view of a short loopback TCP training job.
type wireRun struct {
	checksum          uint64
	txFrames, txBytes int64
	rxFrames, rxBytes int64
	decorated         int64 // frames the decorator counted
}

// trainOverTCP trains a tiny friendster-sim task on two loopback TCP
// ranks for two epochs, with or without the timing decorator.
func trainOverTCP(t *testing.T, kind strategy.Kind, decorate bool) []wireRun {
	t.Helper()
	ds, err := buildDataset("FS", 0.02, 5)
	if err != nil {
		t.Fatal(err)
	}
	task := newTask(ds, fsWorld, 32, 5)
	task.GradCompress = fsCodec
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	out := make([]wireRun, fsWorld)
	regs := make([]*obs.Registry, fsWorld)
	err = onRanks(fsWorld, func(r int) error {
		regs[r] = obs.NewRegistry()
		opts := transport.TCPOptions{Rank: r, World: fsWorld, Coord: ln.Addr().String(), Reg: regs[r]}
		if r == 0 {
			opts.CoordListener = ln
		}
		tcp, err := transport.NewTCP(opts)
		if err != nil {
			return err
		}
		var tr comm.Transport = tcp
		var ws *wireStats
		if decorate {
			tr, ws = timeTransport(tcp)
		}
		a, err := core.New(task)
		if err != nil {
			return err
		}
		e, err := a.BuildEngineDistributed(kind, tr, r)
		if err != nil {
			return err
		}
		for ep := 0; ep < 2; ep++ {
			if _, err := e.RunEpochContext(context.Background()); err != nil {
				return err
			}
		}
		out[r].checksum = paramChecksum(e.Model(r))
		if ws != nil {
			out[r].decorated = ws.totals().Frames
		}
		return tcp.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, reg := range regs {
		out[r].txFrames = reg.Counter("apt_transport_tx_frames_total", "").Value()
		out[r].txBytes = reg.Counter("apt_transport_tx_bytes_total", "").Value()
		out[r].rxFrames = reg.Counter("apt_transport_rx_frames_total", "").Value()
		out[r].rxBytes = reg.Counter("apt_transport_rx_bytes_total", "").Value()
	}
	return out
}

// TestTimeTransportChangesNothing trains the same job with and without
// the decorator: the wire must carry the same frames and bytes, and the
// trained parameters must be bit-identical. NFP exercises the
// broadcast path, SNP the all-to-all shuffles.
func TestTimeTransportChangesNothing(t *testing.T) {
	for _, kind := range []strategy.Kind{strategy.SNP, strategy.NFP} {
		t.Run(kind.String(), func(t *testing.T) {
			plain := trainOverTCP(t, kind, false)
			timed := trainOverTCP(t, kind, true)
			for r := range plain {
				p, d := plain[r], timed[r]
				if d.decorated != p.txFrames {
					t.Errorf("rank %d: decorator counted %d frames, the wire sent %d", r, d.decorated, p.txFrames)
				}
				d.decorated = 0
				if p != d {
					t.Errorf("rank %d: plain %+v, decorated %+v", r, p, d)
				}
				if p.checksum != plain[0].checksum {
					t.Errorf("rank %d checksum %016x differs from rank 0's %016x", r, p.checksum, plain[0].checksum)
				}
			}
		})
	}
}
