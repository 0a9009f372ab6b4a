// Command gvfs-proxyc runs a GVFS proxy client over real TCP: a kernel NFS
// client mounts it on the loopback, and it forwards cache misses to a
// gvfs-proxyd (or straight to an NFS server) while maintaining the session's
// consistency model.
//
// Usage:
//
//	gvfs-proxyc [-listen 127.0.0.1:4049] [-cb-listen :4050] \
//	            [-cb-addr natted-host:4050] [-upstream proxyhost:3049] \
//	            [-model polling|delegation] [-id client-1] [-writeback] \
//	            [-readahead 4|-1] [-flush-parallelism 4]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"repro/gvfs"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/tcpnet"
	"repro/internal/vclock"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:4049", "local NFS listen address for the kernel client")
	cbListen := flag.String("cb-listen", ":4050", "listen address for proxy-server callbacks")
	cbAddr := flag.String("cb-addr", "", "callback address to advertise when this host is behind NAT (default: the address the upstream connection leaves from, with the port cb-listen bound)")
	upstream := flag.String("upstream", "localhost:3049", "proxy server (or NFS server) address")
	model := flag.String("model", "polling", "consistency model: polling or delegation")
	id := flag.String("id", "client-1", "session client ID")
	session := flag.String("session", "default", "session key")
	writeback := flag.Bool("writeback", false, "enable write-back caching")
	poll := flag.Duration("poll-period", 30*time.Second, "invalidation polling window")
	metrics := flag.String("metrics", "", "HTTP listen address for /metrics, /metrics.json, /spans, /trace, /attr and /debug/pprof/ (empty = disabled)")
	workers := flag.Int("workers", runtime.NumCPU()*4, "callback-service worker-pool size (0 = unbounded)")
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
	cred := core.SessionCred{SessionKey: *session, ClientID: *id, CallbackAddr: *cbAddr}
	if err := run(cfg, cred, *listen, *cbListen, *upstream, *model, *metrics); err != nil {
		fmt.Fprintln(os.Stderr, "gvfs-proxyc:", err)
		os.Exit(1)
	}
}

func run(cfg core.Config, cred core.SessionCred, listen, cbListen, upstream, model, metrics string) (err error) {
	if cfg.Model, err = core.ParseModel(model); err != nil {
		return err
	}
	clk := vclock.NewReal()
	cfg.Obs = obs.New(clk.Now, 4096)
	proxy, addr, err := gvfs.StartProxyClient(clk, tcpnet.Net{}, tcpnet.Net{}, upstream, listen, cbListen, cfg, cred)
	if err != nil {
		return err
	}
	gvfs.ServeMetrics("gvfs-proxyc", metrics, cfg.Obs, proxy.PublishMetrics)
	log.Printf("gvfs-proxyc: %s session %s/%s, NFS on %s, upstream %s",
		cfg.Model, cred.SessionKey, cred.ClientID, addr, upstream)
	select {} // serve forever
}
