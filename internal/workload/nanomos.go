package workload

import (
	"fmt"
	"time"

	"repro/internal/memfs"
	"repro/internal/nfsclient"
	"repro/internal/vclock"
)

// NanoMOSConfig parameterizes the shared software repository scenario of
// Section 5.2.1: NanoMOS (a 2-D MOSFET simulator) runs in parallel on N
// wide-area machines, read-sharing MATLAB + the MPI toolbox (MPITB) from a
// repository, while an administrator applies an update between iterations 4
// and 5. Paper numbers: MATLAB is ~14,000 files/directories, MPITB 540, and
// each client touches a ~30 MB working set (~2.7 K consistency checks per
// run on NFS).
type NanoMOSConfig struct {
	Clients    int // default 6
	Iterations int // default 8
	// UpdateAfter is the iteration after which the update happens (default 4).
	UpdateAfter int
	// UpdateMPITBOnly selects Figure 7(b): update only the 540-file MPITB
	// subtree instead of the whole MATLAB tree.
	UpdateMPITBOnly bool

	MatlabFiles int // default 14000
	MPITBFiles  int // default 540
	// WorkingSet is the number of repository files each iteration touches.
	WorkingSet int // default 2700
	// MeanFileSize controls repository file sizes (working set ~= 30 MB).
	MeanFileSize int // default 11 KiB
	// ComputeTime is the modeled per-iteration simulation CPU time.
	ComputeTime time.Duration // default 30 s
	Seed        int64

	// Scale shrinks every count for quick tests (1 = full size).
	Scale int
}

func (c NanoMOSConfig) withDefaults() NanoMOSConfig {
	if c.Clients == 0 {
		c.Clients = 6
	}
	if c.Iterations == 0 {
		c.Iterations = 8
	}
	if c.UpdateAfter == 0 {
		c.UpdateAfter = 4
	}
	if c.MatlabFiles == 0 {
		c.MatlabFiles = 14000
	}
	if c.MPITBFiles == 0 {
		c.MPITBFiles = 540
	}
	if c.WorkingSet == 0 {
		c.WorkingSet = 2700
	}
	if c.MeanFileSize == 0 {
		c.MeanFileSize = 11 * 1024
	}
	if c.ComputeTime == 0 {
		c.ComputeTime = 30 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 777
	}
	if c.Scale > 1 {
		c.MatlabFiles /= c.Scale
		c.MPITBFiles /= c.Scale
		c.WorkingSet /= c.Scale
		if c.MatlabFiles < 10 {
			c.MatlabFiles = 10
		}
		if c.MPITBFiles < 5 {
			c.MPITBFiles = 5
		}
		if c.WorkingSet < 10 {
			c.WorkingSet = 10
		}
	}
	return c
}

// matlabDirs spreads the MATLAB tree over ~100-file directories.
const matlabDirFiles = 100

// SetupNanoMOSRepo builds the repository on the server: the MATLAB tree
// (including the MPITB subtree) plus NanoMOS's own scripts.
func SetupNanoMOSRepo(fs *memfs.FS, cfg NanoMOSConfig) error {
	cfg = cfg.withDefaults()
	r := rng(cfg.Seed)
	for i := 0; i < cfg.MatlabFiles; i++ {
		dir := i / matlabDirFiles
		size := cfg.MeanFileSize/2 + r.Intn(cfg.MeanFileSize)
		path := fmt.Sprintf("repo/matlab/d%03d/m%05d.m", dir, i)
		if _, err := fs.WriteFile(path, synthData(cfg.Seed+int64(i), size)); err != nil {
			return err
		}
	}
	for i := 0; i < cfg.MPITBFiles; i++ {
		size := cfg.MeanFileSize/2 + r.Intn(cfg.MeanFileSize)
		path := fmt.Sprintf("repo/matlab/mpitb/p%04d.m", i)
		if _, err := fs.WriteFile(path, synthData(cfg.Seed+100_000+int64(i), size)); err != nil {
			return err
		}
	}
	for i := 0; i < 50; i++ {
		path := fmt.Sprintf("repo/nanomos/s%02d.m", i)
		if _, err := fs.WriteFile(path, synthData(cfg.Seed+200_000+int64(i), 8_000)); err != nil {
			return err
		}
	}
	return nil
}

// workingSetPaths returns the deterministic per-client working set: a mix
// of MATLAB core files, the MPITB toolbox, and the NanoMOS scripts. The set
// is stable across iterations — the temporal locality the paper's caching
// exploits.
func workingSetPaths(cfg NanoMOSConfig, client int) []string {
	r := rng(cfg.Seed + int64(client)*13)
	n := cfg.WorkingSet
	paths := make([]string, 0, n)
	seen := make(map[string]bool, n)
	mpitb := cfg.MPITBFiles / 2
	if mpitb > n/10 {
		mpitb = n / 10
	}
	for i := 0; i < mpitb; i++ {
		p := fmt.Sprintf("repo/matlab/mpitb/p%04d.m", r.Intn(cfg.MPITBFiles))
		if !seen[p] {
			seen[p] = true
			paths = append(paths, p)
		}
	}
	for i := 0; i < 50 && len(paths) < n; i++ {
		p := fmt.Sprintf("repo/nanomos/s%02d.m", i)
		if !seen[p] {
			seen[p] = true
			paths = append(paths, p)
		}
	}
	for len(paths) < n {
		f := r.Intn(cfg.MatlabFiles)
		p := fmt.Sprintf("repo/matlab/d%03d/m%05d.m", f/matlabDirFiles, f)
		if !seen[p] {
			seen[p] = true
			paths = append(paths, p)
		}
	}
	return paths
}

// NanoMOSStats records per-iteration runtimes (the series of Figure 7).
type NanoMOSStats struct {
	// IterRuntimes[i] is the wall time of iteration i+1 (max across the
	// parallel clients, since the job finishes when the slowest does).
	IterRuntimes []time.Duration
}

// ApplyUpdate rewrites repository files through the administrator's mount
// (the LAN maintenance client VC5 in Figure 1): the whole MATLAB tree, or
// just MPITB per the config.
func ApplyUpdate(admin *nfsclient.Client, cfg NanoMOSConfig) error {
	cfg = cfg.withDefaults()
	r := rng(cfg.Seed + 999)
	if cfg.UpdateMPITBOnly {
		for i := 0; i < cfg.MPITBFiles; i++ {
			size := cfg.MeanFileSize/2 + r.Intn(cfg.MeanFileSize)
			path := fmt.Sprintf("repo/matlab/mpitb/p%04d.m", i)
			if err := admin.WriteFile(path, synthData(cfg.Seed+300_000+int64(i), size)); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < cfg.MatlabFiles; i++ {
		size := cfg.MeanFileSize/2 + r.Intn(cfg.MeanFileSize)
		path := fmt.Sprintf("repo/matlab/d%03d/m%05d.m", i/matlabDirFiles, i)
		if err := admin.WriteFile(path, synthData(cfg.Seed+400_000+int64(i), size)); err != nil {
			return err
		}
	}
	for i := 0; i < cfg.MPITBFiles; i++ {
		size := cfg.MeanFileSize/2 + r.Intn(cfg.MeanFileSize)
		path := fmt.Sprintf("repo/matlab/mpitb/p%04d.m", i)
		if err := admin.WriteFile(path, synthData(cfg.Seed+500_000+int64(i), size)); err != nil {
			return err
		}
	}
	return nil
}

// RunNanoMOSIteration executes one parallel iteration across the client
// mounts and returns its runtime (slowest client).
func RunNanoMOSIteration(clk *vclock.Clock, mounts []*nfsclient.Client, cfg NanoMOSConfig) (time.Duration, int) {
	cfg = cfg.withDefaults()
	start := clk.Now()
	errs := 0
	g := clk.NewGroup()
	for i := 0; i < cfg.Clients && i < len(mounts); i++ {
		i := i
		c := mounts[i]
		g.Go(fmt.Sprintf("nanomos-%d", i), func() {
			for _, path := range workingSetPaths(cfg, i) {
				if _, err := c.ReadFile(path); err != nil {
					errs++
					return
				}
			}
			compute(clk, cfg.ComputeTime)
		})
	}
	g.Wait()
	return clk.Now() - start, errs
}
