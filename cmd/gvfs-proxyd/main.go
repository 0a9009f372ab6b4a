// Command gvfs-proxyd runs a GVFS proxy server over real TCP: it fronts a
// kernel NFS server (or gvfs-nfsd) and serves GVFS proxy clients, tracking
// invalidations and delegations for one session.
//
// Usage:
//
//	gvfs-proxyd [-listen :3049] [-upstream localhost:2049] [-model polling|delegation]
//	            [-workers N] [-queue-depth N] [-rate-limit ops] [-client-rate-limit ops]
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
	listen := flag.String("listen", ":3049", "TCP listen address for proxy clients")
	upstream := flag.String("upstream", "localhost:2049", "address of the NFS server to front")
	model := flag.String("model", "polling", "consistency model: polling or delegation")
	poll := flag.Duration("poll-period", 30*time.Second, "invalidation polling window")
	expiry := flag.Duration("deleg-expiry", 10*time.Minute, "delegation expiration period")
	metrics := flag.String("metrics", "", "HTTP listen address for /metrics, /metrics.json, /spans, /trace, /attr and /debug/pprof/ (empty = disabled)")
	workers := flag.Int("workers", runtime.NumCPU()*4, "request worker-pool size (0 = unbounded legacy spawn)")
	queueDepth := flag.Int("queue-depth", 0, "per-client queue bound (0 = scheduler default)")
	rateLimit := flag.Float64("rate-limit", 0, "global admission rate in ops/sec (0 = unlimited)")
	rateBurst := flag.Float64("rate-burst", 0, "global admission burst (0 = scheduler default)")
	clientRate := flag.Float64("client-rate-limit", 0, "per-client admission rate in ops/sec (0 = unlimited)")
	clientBurst := flag.Float64("client-rate-burst", 0, "per-client admission burst (0 = scheduler default)")
	flag.Parse()

	cfg := core.Config{
		PollPeriod: *poll, DelegExpiry: *expiry,
		ServerWorkers: *workers, ServerQueueDepth: *queueDepth,
		RateLimitOps: *rateLimit, RateLimitBurst: *rateBurst,
		ClientRateLimitOps: *clientRate, ClientRateLimitBurst: *clientBurst,
	}
	if err := run(cfg, *listen, *upstream, *model, *metrics); err != nil {
		fmt.Fprintln(os.Stderr, "gvfs-proxyd:", err)
		os.Exit(1)
	}
}

func run(cfg core.Config, listen, upstream, model, metrics string) (err error) {
	if cfg.Model, err = core.ParseModel(model); err != nil {
		return err
	}
	clk := vclock.NewReal()
	cfg.Obs = obs.New(clk.Now, 4096)
	srv, addr, err := gvfs.StartProxyServer(clk, tcpnet.Net{}, tcpnet.Net{}, listen, upstream, cfg, &core.MemStateStore{})
	if err != nil {
		return err
	}
	gvfs.ServeMetrics("gvfs-proxyd", metrics, cfg.Obs, srv.PublishMetrics)
	log.Printf("gvfs-proxyd: %s session on %s, upstream %s", cfg.Model, addr, upstream)
	select {} // serve forever
}
