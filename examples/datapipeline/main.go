// Data pipeline example (the Figure 8 scenario): real-time data accumulates
// on a coastal observation site and is processed at an off-site computing
// center, shared through a GVFS session with delegation-callback (strong)
// consistency. The consumer always sees the producer's latest data, yet its
// consistency traffic stays constant as the dataset grows.
//
//	go run ./examples/datapipeline
package main

import (
	"fmt"
	"log"

	"repro/gvfs"
	"repro/internal/core"
	"repro/internal/nfsclient"
	"repro/internal/workload"
)

func main() {
	d, err := gvfs.NewDeployment(gvfs.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()

	d.Run("datapipeline", func() {
		sess, err := d.NewSession("ch1d", core.Config{Model: core.ModelDelegation})
		if err != nil {
			log.Fatal(err)
		}
		// Strong consistency disables the kernel attribute cache and lets
		// the GVFS delegations take over (the paper's GVFS2 base).
		producer, err := sess.Mount("observation-site", nfsclient.Options{NoAC: true})
		if err != nil {
			log.Fatal(err)
		}
		consumer, err := sess.Mount("computing-center", nfsclient.Options{NoAC: true})
		if err != nil {
			log.Fatal(err)
		}

		cfg := workload.CH1DConfig{Runs: 6, FilesPerRun: 10, FileSize: 64 * 1024}
		st, err := workload.RunCH1D(d.Clock, producer.Client, consumer.Client, cfg)
		if err != nil {
			log.Fatal(err)
		}

		fmt.Println("run  files  processing-time")
		for i, rt := range st.RunTimes {
			fmt.Printf("%3d  %5d  %v\n", i+1, st.FilesProcessed[i], rt)
		}
		// Counters live in the deployment's metrics registry, one series per
		// proxy node: the proxy server is named after its session, a proxy
		// client host/session.
		snap := d.Obs.Registry().Snapshot()
		callbacks := snap.Sum("gvfs_server_callbacks_sent_total", "node", sess.Name)
		fmt.Printf("\ncallbacks issued by proxy server: %d (~%d per run — only the new files)\n",
			callbacks, callbacks/int64(cfg.Runs))
		fmt.Printf("consumer wide-area traffic: %v\n", consumer.WANCounts())
		fmt.Printf("consumer local cache hits:  %d\n",
			snap.Sum("gvfs_client_local_hits_total", "node", consumer.Host()+"/"+sess.Name))
	})
}
