package bench

import (
	"reflect"
	"testing"

	"repro/internal/workload"
)

// TestFig6DelegationReplays pins the simulator's determinism where it used to
// give way: six clients contending for a lock under the delegation model, so
// that many calls reach nfsd, the proxy server and the kernel-facing servers
// at the same virtual instant. Every scheduling decision at every RPC server
// is taken in the drain, in sorted arrival order, so the same inputs must
// give the same runtime, the same wide-area RPC counts and the same winners,
// run after run.
func TestFig6DelegationReplays(t *testing.T) {
	const runs = 5
	var first Fig6Setup
	for i := range runs {
		got, err := runFig6NFS(Options{}, "GVFS-cb", workload.LockConfig{Acquisitions: 3})
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
}
