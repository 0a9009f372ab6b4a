// Lock farm example (the Section 5.1.2 scenario): distributed clients
// coordinate through link-based file locks. Run under both consistency
// models to see the tradeoff the paper measures: the relaxed model lets the
// previous owner reacquire the lock (stale views of the release), while the
// strong model is fair at the cost of callbacks.
//
//	go run ./examples/lockfarm
package main

import (
	"fmt"
	"log"
	"time"

	"repro/gvfs"
	"repro/internal/core"
	"repro/internal/nfsclient"
	"repro/internal/workload"
)

func main() {
	cfg := workload.LockConfig{
		Clients:      4,
		Acquisitions: 5,
		HoldTime:     5 * time.Second,
		RetryPause:   time.Second,
		RejoinPause:  time.Second,
	}

	for _, model := range []core.Model{core.ModelPolling, core.ModelDelegation} {
		d, err := gvfs.NewDeployment(gvfs.Config{})
		if err != nil {
			log.Fatal(err)
		}
		if err := workload.SetupLockDir(d.FS); err != nil {
			log.Fatal(err)
		}

		d.Run("lockfarm", func() {
			scfg := core.Config{Model: model, PollPeriod: 30 * time.Second}
			sess, err := d.NewSession("locks", scfg)
			if err != nil {
				log.Fatal(err)
			}
			var clients []*nfsclient.Client
			for i := 0; i < cfg.Clients; i++ {
				kopts := nfsclient.Options{NoAC: true}
				if model == core.ModelPolling {
					kopts = nfsclient.Options{AttrMin: 3 * time.Second, AttrMax: 30 * time.Second}
				}
				m, err := sess.Mount(fmt.Sprintf("C%d", i+1), kopts)
				if err != nil {
					log.Fatal(err)
				}
				clients = append(clients, m.Client)
			}

			st, err := workload.RunLock(d.Clock, workload.WrapNFS(clients), cfg)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("\n=== %v ===\n", model)
			fmt.Printf("runtime: %v for %d acquisitions\n", st.Elapsed.Round(time.Second), len(st.Sequence))
			fmt.Printf("back-to-back reacquisitions (unfairness): %d\n", st.Reacquisitions())
			fmt.Printf("wins per client: %v\n", st.PerClientWins(cfg.Clients))
			fmt.Printf("callbacks: %d\n", d.Obs.Registry().Snapshot().Sum("gvfs_server_callbacks_sent_total", "node", sess.Name))
		})
		d.Close()
	}
}
