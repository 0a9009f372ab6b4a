// Command gvfs-proxyc runs a GVFS proxy client over real TCP: a kernel NFS
// client mounts it on the loopback, and it forwards cache misses to a
// gvfs-proxyd (or straight to an NFS server) while maintaining the session's
// consistency model.
//
// Usage:
//
//	gvfs-proxyc [-listen 127.0.0.1:4049] [-cb-listen :4050] \
//	            [-cb-addr host:4050] [-upstream proxyhost:3049] \
//	            [-model polling|delegation] [-id client-1] [-writeback] \
//	            [-readahead 4|-1] [-flush-parallelism 4]
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/attr"
	"repro/internal/sunrpc"
	"repro/internal/tcpnet"
	"repro/internal/vclock"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:4049", "local NFS listen address for the kernel client")
	cbListen := flag.String("cb-listen", ":4050", "listen address for proxy-server callbacks")
	cbAddr := flag.String("cb-addr", "", "externally reachable callback address (defaults to cb-listen)")
	upstream := flag.String("upstream", "localhost:3049", "proxy server (or NFS server) address")
	model := flag.String("model", "polling", "consistency model: polling or delegation")
	id := flag.String("id", "client-1", "session client ID")
	session := flag.String("session", "default", "session key")
	writeback := flag.Bool("writeback", false, "enable write-back caching")
	poll := flag.Duration("poll-period", 30*time.Second, "invalidation polling window")
	metrics := flag.String("metrics", "", "HTTP listen address for /metrics, /metrics.json, /spans, /trace and /attr (empty = disabled)")
	workers := flag.Int("workers", runtime.NumCPU()*4, "callback-service worker-pool size (0 = unbounded legacy spawn)")
	queueDepth := flag.Int("queue-depth", 0, "callback-service queue bound (0 = scheduler default)")
	diskDir := flag.String("disk-cache-dir", "", "directory for the crash-consistent persistent block cache (empty = in-memory only); a restart on the same directory recovers the cache")
	diskBytes := flag.Int64("disk-cache-bytes", 0, "clean-block byte budget of the persistent cache (0 = the in-memory cache budget)")
	diskSync := flag.String("disk-cache-sync", "dirty", "persistent-cache journal sync policy: dirty (fsync dirty-state transitions), always, none")
	readahead := flag.Int("readahead", 0, "initial sequential-readahead window in blocks; it grows from there to what the upstream link can carry (0 = the default, 4; negative = readahead off)")
	flushPar := flag.Int("flush-parallelism", 0, "write-back WRITEs kept in flight across the upstream link (0 = the default, 1)")
	flag.Parse()

	cfg := core.Config{
		PollPeriod: *poll, WriteBack: *writeback,
		ServerWorkers: *workers, ServerQueueDepth: *queueDepth,
		DiskCacheDir: *diskDir, DiskCacheBytes: *diskBytes, DiskCacheSyncPolicy: *diskSync,
		ReadAhead: *readahead, FlushParallelism: *flushPar,
	}
	if err := run(cfg, *listen, *cbListen, *cbAddr, *upstream, *model, *id, *session, *metrics); err != nil {
		fmt.Fprintln(os.Stderr, "gvfs-proxyc:", err)
		os.Exit(1)
	}
}

func run(cfg core.Config, listen, cbListen, cbAddr, upstream, model, id, session, metrics string) error {
	switch model {
	case "polling":
		cfg.Model = core.ModelPolling
	case "delegation":
		cfg.Model = core.ModelDelegation
	default:
		return fmt.Errorf("unknown model %q", model)
	}

	clk := vclock.NewReal()
	o := obs.New(clk.Now, 4096)
	cfg.Obs = o
	cfg.ObsName = id
	var tn tcpnet.Net
	upConn, err := tn.Dial(upstream)
	if err != nil {
		return fmt.Errorf("dial upstream %s: %w", upstream, err)
	}

	if cbAddr == "" {
		cbAddr = cbListen
	}
	cred := core.SessionCred{SessionKey: session, ClientID: id, CallbackAddr: cbAddr}
	proxy := core.NewProxyClient(clk, cfg, sunrpc.NewClient(clk, upConn, sunrpc.NoneCred()), cred)
	if cfg.DiskCacheDir != "" {
		// A restart on a warm directory recovered blocks at construction;
		// revalidate them and write recovered dirty data back before serving.
		proxy.RecoverAfterCrash()
	}
	if metrics != "" {
		mux := o.Handler(proxy.PublishMetrics)
		mux.HandleFunc("/attr", attr.Handler(o.Spans))
		go func() {
			log.Printf("gvfs-proxyc: metrics on http://%s/metrics", metrics)
			if err := http.ListenAndServe(metrics, mux); err != nil {
				log.Printf("gvfs-proxyc: metrics server: %v", err)
			}
		}()
	}
	proxy.SetRedial(func() (*sunrpc.Client, error) {
		c, err := tn.Dial(upstream)
		if err != nil {
			return nil, err
		}
		return sunrpc.NewClient(clk, c, sunrpc.NoneCred()), nil
	})

	nfsL, err := tn.Listen(listen)
	if err != nil {
		return err
	}
	cbL, err := tn.Listen(cbListen)
	if err != nil {
		return err
	}
	log.Printf("gvfs-proxyc: %s session %s/%s, NFS on %s, callbacks on %s, upstream %s",
		cfg.Model, session, id, nfsL.Addr(), cbL.Addr(), upstream)
	proxy.Serve(nfsL, cbL)
	select {} // serve forever
}
