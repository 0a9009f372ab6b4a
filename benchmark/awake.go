package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// The sandbox is a virtual machine on a shared host. A guest CPU that runs out
// of work halts, and the wake-up that ends the halt goes through the host: how
// long it takes depends on what the host was doing, and drifts by tens of
// percent over minutes. A request here crosses four goroutine hand-offs and as
// many sockets, so its CPUs run out of work all the time, and that drift was
// most of the run-to-run spread of the loopback workloads (miss_read's p50 over
// ten alternating pairs of runs on a busy host: 10 % between the quartiles
// with halting CPUs, 3 % without; README.md has the table). So while it
// measures, the benchmark keeps every CPU it may use out of the halt with one
// spinner process per CPU in the SCHED_IDLE class: the kernel runs it only
// where nothing else is runnable and preempts it the moment something is, so
// it takes the halts and next to nothing else (rates within 3 % either way in
// the same table). It is what idle=poll would do. -awake=false measures
// without.

const (
	schedIdle = 5 // SCHED_IDLE, <linux/sched.h>
	// spinLimit ends a spinner whatever happens to its parent; no run lasts
	// this long.
	spinLimit = 10 * time.Minute
)

// keepAwake starts the spinners and returns the function that stops them and
// waits until each has ended. Where one cannot start the run goes on without.
func keepAwake() (stop func()) {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: CPUs not kept awake:", err)
		return func() {}
	}
	type spinner struct {
		cmd  *exec.Cmd
		hold io.Closer
	}
	var started []spinner
	for _, cpu := range allowedCPUs() {
		cmd := exec.Command(exe, "-idle-spin", strconv.Itoa(cpu))
		cmd.Stderr = os.Stderr
		// The spinner lives as long as the write end of its standard input: it
		// ends when this process does, however that comes about.
		hold, err := cmd.StdinPipe()
		if err == nil {
			err = cmd.Start()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: CPU %d not kept awake: %v\n", cpu, err)
			continue
		}
		started = append(started, spinner{cmd, hold})
	}
	return func() {
		for _, s := range started {
			s.hold.Close()
			s.cmd.Process.Kill()
			s.cmd.Wait()
		}
	}
}

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs() []int {
	var mask [16]uint64
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return nil
	}
	var cpus []int
	for i := 0; i < int(n)*8; i++ {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus
}

// idleSpin is the spinner process: one thread bound to cpu in the SCHED_IDLE
// class, busy until standard input closes.
func idleSpin(cpu int) int {
	go func() {
		runtime.LockOSThread() // affinity and class are the thread's
		var mask [16]uint64
		mask[cpu/64] = 1 << (cpu % 64)
		_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
		if errno == 0 {
			var param struct{ priority int32 }
			_, _, errno = syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param)))
		}
		if errno != 0 {
			// Never spin in the class the program under test runs in.
			fmt.Fprintf(os.Stderr, "benchmark: idle spinner on CPU %d: %v\n", cpu, errno)
			os.Exit(1)
		}
		deadline := time.Now().Add(spinLimit)
		for n := 1; ; n++ {
			if n%(1<<24) == 0 && time.Now().After(deadline) {
				os.Exit(0)
			}
		}
	}()
	io.Copy(io.Discard, os.Stdin)
	return 0
}
