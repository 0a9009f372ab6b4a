// Software repository example (the Figure 7 scenario): a wide-area shared
// software repository read by compute clients under invalidation-polling
// consistency, while a LAN administrator applies updates. Invalidations are
// batched through GETINV and proportional to the update size.
//
//	go run ./examples/softwarerepo
package main

import (
	"fmt"
	"log"
	"time"

	"repro/gvfs"
	"repro/internal/core"
	"repro/internal/nfsclient"
	"repro/internal/simnet"
)

func main() {
	d, err := gvfs.NewDeployment(gvfs.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()

	// The repository: a package of 200 files plus a small toolbox of 20.
	for i := 0; i < 200; i++ {
		d.FS.WriteFile(fmt.Sprintf("repo/pkg/mod%03d.m", i), make([]byte, 4096))
	}
	for i := 0; i < 20; i++ {
		d.FS.WriteFile(fmt.Sprintf("repo/toolbox/t%02d.m", i), make([]byte, 4096))
	}
	// The administrator sits on the server's LAN.
	d.Net.SetLink("admin", "server", simnet.LAN)

	d.Run("softwarerepo", func() {
		sess, err := d.NewSession("repo", core.Config{
			Model:      core.ModelPolling,
			PollPeriod: 10 * time.Second,
		})
		if err != nil {
			log.Fatal(err)
		}

		// Two wide-area compute clients and the administrator share the
		// session.
		c1, err := sess.Mount("C1", nfsclient.Options{})
		if err != nil {
			log.Fatal(err)
		}
		c2, err := sess.Mount("C2", nfsclient.Options{})
		if err != nil {
			log.Fatal(err)
		}
		admin, err := sess.Mount("admin", nfsclient.Options{})
		if err != nil {
			log.Fatal(err)
		}

		// Compute clients warm their caches: one pass over the package.
		warm := func(m *gvfs.Mount, name string) {
			start := d.Clock.Now()
			for i := 0; i < 200; i++ {
				if _, err := m.Client.ReadFile(fmt.Sprintf("repo/pkg/mod%03d.m", i)); err != nil {
					log.Fatal(err)
				}
			}
			fmt.Printf("%s: cold pass took %v\n", name, d.Clock.Now()-start)
		}
		rerun := func(m *gvfs.Mount, name string) {
			start := d.Clock.Now()
			for i := 0; i < 200; i++ {
				if _, err := m.Client.ReadFile(fmt.Sprintf("repo/pkg/mod%03d.m", i)); err != nil {
					log.Fatal(err)
				}
			}
			fmt.Printf("%s: warm pass took %v\n", name, d.Clock.Now()-start)
		}
		warm(c1, "C1")
		warm(c2, "C2")
		rerun(c1, "C1")

		// The administrator updates only the toolbox (20 files).
		before1 := c1.WANCounts()["GETINV"]
		for i := 0; i < 20; i++ {
			if err := admin.Client.WriteFile(fmt.Sprintf("repo/toolbox/t%02d.m", i), []byte("v2")); err != nil {
				log.Fatal(err)
			}
		}
		d.Clock.Sleep(12 * time.Second) // one polling window
		fmt.Printf("toolbox update propagated in %d GETINV replies to C1 (invalidations batched)\n",
			c1.WANCounts()["GETINV"]-before1)

		// The package itself was untouched: rereads stay warm.
		rerun(c1, "C1")
		// The proxy client's counters, from the deployment's registry (its
		// node is host/session).
		snap, node := d.Obs.Registry().Snapshot(), "C1/"+sess.Name
		fmt.Printf("C1 processed %d invalidations, %d local cache hits\n",
			snap.Sum("gvfs_client_invalidations_total", "node", node),
			snap.Sum("gvfs_client_local_hits_total", "node", node))
	})
}
