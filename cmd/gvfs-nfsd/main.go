// Command gvfs-nfsd runs the in-memory NFSv3 server over real TCP: the
// kernel-NFS-server substitute of the testbed, usable as the upstream of a
// gvfs-proxyd or directly by gvfs-proxyc in pass-through mode.
//
// Usage:
//
//	gvfs-nfsd [-listen :2049] [-seed dir]
//
// With -seed, the export is pre-populated from a local directory tree.
package main

import (
	"flag"
	"fmt"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"runtime"

	"repro/gvfs"
	"repro/internal/memfs"
	"repro/internal/obs"
	"repro/internal/sunrpc"
	"repro/internal/tcpnet"
	"repro/internal/vclock"
)

func main() {
	listen := flag.String("listen", ":2049", "TCP listen address")
	seed := flag.String("seed", "", "optional local directory to pre-populate the export from")
	metrics := flag.String("metrics", "", "HTTP listen address for /metrics, /metrics.json, /spans, /trace, /attr and /debug/pprof/ (empty = disabled)")
	workers := flag.Int("workers", runtime.NumCPU()*4, "request worker-pool size (0 = unbounded legacy spawn)")
	queueDepth := flag.Int("queue-depth", 0, "per-client queue bound (0 = scheduler default)")
	flag.Parse()
	// Pool only, no admission control: this server may face clients with no
	// retransmission policy, so it must never shed.
	sched := sunrpc.SchedConfig{Workers: *workers, QueueDepth: *queueDepth}
	if err := run(*listen, *seed, *metrics, sched); err != nil {
		fmt.Fprintln(os.Stderr, "gvfs-nfsd:", err)
		os.Exit(1)
	}
}

func run(listen, seed, metrics string, sched sunrpc.SchedConfig) error {
	clk := vclock.NewReal()
	mfs := memfs.New(clk.Now)
	if seed != "" {
		if err := seedFrom(mfs, seed); err != nil {
			return fmt.Errorf("seed from %s: %w", seed, err)
		}
	}
	o := obs.New(clk.Now, 4096)
	_, addr, err := gvfs.ServeNFS(clk, tcpnet.Net{}, listen, mfs, o, sched)
	if err != nil {
		return err
	}
	gvfs.ServeMetrics("gvfs-nfsd", metrics, o, nil)
	log.Printf("gvfs-nfsd: exporting in-memory filesystem on %s", addr)
	select {} // serve forever
}

func seedFrom(mfs *memfs.FS, root string) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil || rel == "." {
			return err
		}
		if d.IsDir() {
			_, err := mfs.MkdirAll(filepath.ToSlash(rel))
			return err
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		_, err = mfs.WriteFile(filepath.ToSlash(rel), data)
		return err
	})
}
