package bench

import (
	"reflect"
	"testing"

	"repro/internal/workload"
)

// TestFig6DelegationReplays pins the simulator's determinism where it used to
// give way: six clients contending for a lock under the delegation model, so
// that many calls reach nfsd, the proxy server and the kernel-facing servers
// at the same virtual instant, and under the AFS-like reference, whose server
// breaks several clients' callbacks at once. The virtual clock runs one actor
// at a time and the servers take their decisions on it, so the same inputs
// must give the same runtime, the same wide-area RPC counts and the same
// winners, run after run.
func TestFig6DelegationReplays(t *testing.T) {
	const runs = 5
	cfg := workload.LockConfig{Acquisitions: 3}
	for _, mode := range []string{"GVFS-cb", "AFS"} {
		t.Run(mode, func(t *testing.T) {
			var first Fig6Setup
			for i := range runs {
				var got Fig6Setup
				var err error
				if mode == "AFS" {
					got, err = runFig6AFS(cfg)
				} else {
					got, err = runFig6NFS(Options{}, mode, cfg)
				}
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					first = got
					continue
				}
				if !reflect.DeepEqual(got, first) {
					t.Fatalf("run %d differs from run 0:\n got %+v\nwant %+v", i, got, first)
				}
			}
		})
	}
}
