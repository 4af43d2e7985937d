package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// fillerArg runs this binary as the helper process (see startHelper).
const fillerArg = "--idle-filler"

// helper is a child process of this binary with two jobs.
//
// It is the idle filler: it spins one thread per CPU at SCHED_IDLE
// priority. The kernel runs those threads only when nothing else wants
// a CPU, and preempts them as soon as a thread of the benchmark wakes.
// They keep the CPUs from halting between the benchmark's short waits
// (HTTP round trips, fsyncs): on a virtual machine a halted vCPU must
// be rescheduled by the host before it runs again, and on a busy host
// that delay is time stolen from the job, which made job times swing
// by a factor of two between runs. Their CPU time is the helper's, not
// the benchmark's.
//
// It also runs the speed probe (see speedProbe) on request, in its own
// heap and resident set, so the probe neither sees the program's
// garbage collector nor adds to the benchmark's memory metrics.
type helper struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
}

// startHelper starts the helper. stop kills it and waits for it to
// exit; it also exits when its standard input closes, so it cannot
// outlive the benchmark.
func startHelper() (*helper, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	h := &helper{cmd: exec.Command(exe, fillerArg)}
	if h.stdin, err = h.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	stdout, err := h.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	h.out = bufio.NewReader(stdout)
	h.cmd.Stderr = os.Stderr
	if err := h.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the helper process: %w", err)
	}
	return h, nil
}

func (h *helper) stop() {
	h.stdin.Close()
	h.cmd.Process.Kill() //nolint:errcheck // it may have exited on EOF already
	h.cmd.Wait()         //nolint:errcheck // killed on purpose
}

// probe runs n speed probes in the helper and returns them. The
// benchmark waits, idle, while they run.
func (h *helper) probe(n int) ([]probeSample, error) {
	if _, err := fmt.Fprintln(h.stdin, n); err != nil {
		return nil, fmt.Errorf("speed probe: %w", err)
	}
	line, err := h.out.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("speed probe: %w", err)
	}
	var out []probeSample
	for _, f := range strings.Fields(line) {
		var p probeSample
		if _, err := fmt.Sscanf(f, "%g,%g", &p.format, &p.chase); err != nil {
			return nil, fmt.Errorf("speed probe: %q: %w", f, err)
		}
		out = append(out, p)
	}
	if len(out) != n {
		return nil, fmt.Errorf("speed probe: got %d results, want %d", len(out), n)
	}
	return out, nil
}

// runHelper is the helper process: spin on every CPU at SCHED_IDLE,
// and answer each line "n" on standard input with n probes, each as
// "format,chase" seconds, until standard input closes.
func runHelper() int {
	for i := 0; i < runtime.NumCPU(); i++ {
		go func() {
			runtime.LockOSThread()
			if err := setPolicy(schedIdle); err != nil {
				fmt.Fprintln(os.Stderr, "jobbench: idle filler:", err)
				os.Exit(1)
			}
			for {
			}
		}()
	}
	runtime.LockOSThread()
	if err := setPolicy(schedOther); err != nil {
		fmt.Fprintln(os.Stderr, "jobbench: speed probe:", err)
		return 1
	}
	p := newSpeedProbe()
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		n, err := strconv.Atoi(in.Text())
		if err != nil {
			fmt.Fprintln(os.Stderr, "jobbench: speed probe:", err)
			return 1
		}
		var line []byte
		for i := 0; i < n; i++ {
			ps := p.run()
			line = strconv.AppendFloat(line, ps.format, 'g', -1, 64)
			line = append(line, ',')
			line = strconv.AppendFloat(line, ps.chase, 'g', -1, 64)
			line = append(line, ' ')
		}
		os.Stdout.Write(append(line, '\n')) //nolint:errcheck // a closed pipe ends the parent's read
	}
	return 0
}

const (
	schedOther = 0
	schedIdle  = 5
)

// setPolicy sets the calling thread's scheduling policy.
func setPolicy(policy uintptr) error {
	var param struct{ priority int32 }
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, policy, uintptr(unsafe.Pointer(&param))); errno != 0 {
		return fmt.Errorf("sched_setscheduler(%d): %w", policy, errno)
	}
	return nil
}
