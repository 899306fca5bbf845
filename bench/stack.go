package main

import (
	"fmt"
	"net"

	"iosnap/internal/iosnap"
	"iosnap/internal/nand"
	"iosnap/internal/shard"
	"iosnap/internal/srv"
)

// The stack under test is the daemon's: one nand.Device per shard, formatted
// by iosnap.New+Close, mounted by shard.ConfigForDevices+NewServiceFrom and
// served by srv.NewServer — cmd/iosnapd's serve(), minus the image files at
// first start. The benchmark keeps the device pointers so it can read
// Device.Stats at quiescent points.

func formatDevices(w *workload, g geometry) ([]*nand.Device, error) {
	devs := make([]*nand.Device, g.shards)
	for i := range devs {
		cfg := iosnap.DefaultConfig(nandConfig(w, g))
		cfg.MapCachePages = w.mapCachePages
		f, err := iosnap.New(cfg, nil)
		if err != nil {
			return nil, fmt.Errorf("formatting shard %d: %w", i, err)
		}
		if _, err := f.Close(0); err != nil {
			return nil, fmt.Errorf("formatting shard %d: %w", i, err)
		}
		devs[i] = f.Device()
	}
	return devs, nil
}

// shardConfig is the service configuration the devices mount under.
// ConfigForDevices derives everything from the geometry except the map
// layout, which is not recorded on the device.
func shardConfig(w *workload, devs []*nand.Device) (shard.Config, error) {
	cfg, err := shard.ConfigForDevices(devs)
	if err != nil {
		return shard.Config{}, err
	}
	cfg.Base.MapCachePages = w.mapCachePages
	return cfg, nil
}

func mountService(w *workload, devs []*nand.Device) (*shard.Service, error) {
	cfg, err := shardConfig(w, devs)
	if err != nil {
		return nil, err
	}
	return shard.NewServiceFrom(cfg, devs)
}

type stack struct {
	devs   []*nand.Device
	svc    *shard.Service
	server *srv.Server
	served chan error
}

func newStack(w *workload, g geometry) (*stack, error) {
	devs, err := formatDevices(w, g)
	if err != nil {
		return nil, err
	}
	svc, err := mountService(w, devs)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	st := &stack{devs: devs, svc: svc, server: srv.NewServer(svc, ln), served: make(chan error, 1)}
	go func() { st.served <- st.server.Serve() }()
	return st, nil
}

func (st *stack) addr() string { return st.server.Addr().String() }

// stopServing shuts the server down and waits for Serve to return: every
// connection has drained and the view cache is empty, the service still open.
func (st *stack) stopServing() error {
	st.server.Shutdown()
	return <-st.served
}

// devStats sums the devices' counters. Callers hold a quiescent point: no op
// in flight and a Summary barrier behind them.
func devStats(devs []*nand.Device) nand.Stats {
	var sum nand.Stats
	for _, d := range devs {
		s := d.Stats()
		sum.PageReads += s.PageReads
		sum.PagePrograms += s.PagePrograms
		sum.Erases += s.Erases
		sum.BytesRead += s.BytesRead
		sum.BytesWritten += s.BytesWritten
	}
	return sum
}
