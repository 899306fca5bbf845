// Command iosnapd is the storage-service front-end: a long-running TCP
// block server multiplexing many client connections onto one sharded
// ioSnap service. Where iosnapctl reloads the image and replays recovery
// on every invocation, iosnapd mounts once, serves reads, writes, trims,
// and snapshot operations over the wire, and persists the images back out
// on graceful shutdown.
//
// Usage:
//
//	iosnapd -image dev.img [-addr 127.0.0.1:7621] [-shards 4] [-megabytes 64] [-sector 4096] [-window 128] [-viewttl 2s]
//
// The logical device is partitioned contiguously across -shards shards;
// shard i's NAND lives in dev.img.shard<i>. On first start the per-shard
// images are initialized (each -megabytes MiB raw); on later starts each
// is loaded, streamed through crash recovery, and served. Shutdown — via
// SIGINT/SIGTERM or `iosnapctl -remote ADDR shutdown` — drains in-flight
// requests, checkpoints every shard, and streams each device back to its
// image atomically (fsynced temp file + rename), so the next start mounts
// tail-bounded from the checkpoints.
//
// Drive it with the client mode of iosnapctl:
//
//	iosnapctl -remote 127.0.0.1:7621 write -lba 0 -text hello
//	iosnapctl -remote 127.0.0.1:7621 snap-create
//	iosnapctl -remote 127.0.0.1:7621 snap-read -id 1 -lba 0
//	iosnapctl -remote 127.0.0.1:7621 stats
//	iosnapctl -remote 127.0.0.1:7621 shutdown
//
// A connection may keep up to -window requests in flight (the wire
// protocol and its ordering contract: internal/srv/proto.go). Activated
// snapshot views are cached server-side and expire after -viewttl idle.
// Measure throughput with the benchmark (bench/README.md).
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"iosnap/internal/iosnap"
	"iosnap/internal/nand"
	"iosnap/internal/shard"
	"iosnap/internal/srv"
	"iosnap/internal/vfs"
)

// fsys is the filesystem all image I/O goes through; tests swap in a fake.
var fsys vfs.FileSystem = vfs.OS{}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "iosnapd:", err)
		os.Exit(1)
	}
}

type options struct {
	image     string
	addr      string
	shards    int
	megabytes int
	sector    int
	window    int
	viewTTL   time.Duration
}

func run(args []string) error {
	fs := flag.NewFlagSet("iosnapd", flag.ContinueOnError)
	opt := options{}
	fs.StringVar(&opt.image, "image", "", "base image path; shard i uses IMAGE.shard<i> (required)")
	fs.StringVar(&opt.addr, "addr", "127.0.0.1:7621", "listen address")
	fs.IntVar(&opt.shards, "shards", 4, "number of shards (fixed at init; later starts must match)")
	fs.IntVar(&opt.megabytes, "megabytes", 64, "per-shard raw size in MiB (first start only)")
	fs.IntVar(&opt.sector, "sector", 4096, "sector size in bytes (first start only)")
	fs.IntVar(&opt.window, "window", 0, "max in-flight pipelined requests per connection (0 = default)")
	fs.DurationVar(&opt.viewTTL, "viewttl", 0, "idle TTL for cached snapshot views (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if opt.image == "" {
		return fmt.Errorf("usage: iosnapd -image FILE [-addr HOST:PORT] [-shards N]")
	}
	if opt.shards < 1 {
		return fmt.Errorf("iosnapd: -shards %d must be at least 1", opt.shards)
	}
	if opt.viewTTL < 0 {
		return fmt.Errorf("iosnapd: -viewttl %v must not be negative", opt.viewTTL)
	}

	// Forward SIGINT/SIGTERM to the same graceful path the shutdown op
	// takes. The channel is installed before serving so a prompt signal
	// cannot be lost.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sig)

	return serve(opt, sig, func(addr net.Addr) {
		fmt.Printf("iosnapd: serving %s (%d shards) on %s\n", opt.image, opt.shards, addr)
	})
}

func shardPath(image string, i int) string { return fmt.Sprintf("%s.shard%d", image, i) }

// serve mounts (initializing on first start), serves until a shutdown op
// or a signal, then checkpoints and persists every shard image. started
// is called with the bound address once the listener is up (tests bind
// ":0" and need the port).
func serve(opt options, sig <-chan os.Signal, started func(net.Addr)) error {
	if err := ensureImages(opt); err != nil {
		return err
	}
	devs, err := loadDevices(opt)
	if err != nil {
		return err
	}
	cfg, err := shard.ConfigForDevices(devs)
	if err != nil {
		return err
	}
	svc, err := shard.NewServiceFrom(cfg, devs)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", opt.addr)
	if err != nil {
		svc.Close()
		return err
	}
	server := srv.NewServer(svc, ln)
	server.Window = opt.window
	server.ViewTTL = opt.viewTTL
	if started != nil {
		started(ln.Addr())
	}
	stop := make(chan struct{})
	go func() {
		select {
		case <-sig:
			server.Shutdown()
		case <-stop:
		}
	}()
	serveErr := server.Serve()
	close(stop)

	// Serve returned with every in-flight request drained and the service
	// still open: checkpoint each shard, then stream each device back to
	// its image. Both must succeed for the shutdown to count as clean.
	closeErr := svc.Close()
	var saveErr error
	for i, d := range devs {
		if err := vfs.WriteAtomic(fsys, shardPath(opt.image, i), d.SaveImage); err != nil && saveErr == nil {
			saveErr = fmt.Errorf("saving shard %d: %w", i, err)
		}
	}
	if serveErr != nil {
		return serveErr
	}
	if closeErr != nil {
		return fmt.Errorf("checkpointing: %w", closeErr)
	}
	if saveErr != nil {
		return saveErr
	}
	fmt.Printf("iosnapd: checkpointed and saved %d shard image(s)\n", len(devs))
	return nil
}

// ensureImages initializes the per-shard images on first start. All
// present → mount; none present → format; a mix is refused (half a device
// is not a device), and so is an image past the last shard, which a start
// with fewer -shards than the images were made with would leave stale.
func ensureImages(opt options) error {
	present := 0
	for i := 0; i <= opt.shards; i++ {
		f, err := fsys.Open(shardPath(opt.image, i))
		if err != nil {
			if !vfs.IsNotExist(err) {
				return err
			}
			continue
		}
		f.Close()
		if i == opt.shards {
			return fmt.Errorf("iosnapd: %s exists — the device has more than %d shards; refusing a partial device (wrong -shards)", shardPath(opt.image, i), opt.shards)
		}
		present++
	}
	if present == opt.shards {
		return nil
	}
	if present != 0 {
		return fmt.Errorf("iosnapd: %d of %d shard images exist — refusing a partial device (wrong -shards, or delete the strays)", present, opt.shards)
	}
	nc, err := nand.MiBSegments(opt.megabytes, opt.sector)
	if err != nil {
		return fmt.Errorf("iosnapd: %w", err)
	}
	for i := 0; i < opt.shards; i++ {
		f, err := iosnap.New(iosnap.DefaultConfig(nc), nil)
		if err != nil {
			return err
		}
		if _, err := f.Close(0); err != nil {
			return err
		}
		if err := vfs.WriteAtomic(fsys, shardPath(opt.image, i), f.Device().SaveImage); err != nil {
			return err
		}
	}
	fmt.Printf("iosnapd: initialized %d shard image(s) (%d MiB each) under %s\n",
		opt.shards, opt.megabytes, opt.image)
	return nil
}

func loadDevices(opt options) ([]*nand.Device, error) {
	devs := make([]*nand.Device, opt.shards)
	for i := range devs {
		f, err := fsys.Open(shardPath(opt.image, i))
		if err != nil {
			return nil, err
		}
		d, err := nand.LoadImage(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", shardPath(opt.image, i), err)
		}
		devs[i] = d
	}
	return devs, nil
}
