package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running meterd child process.
type daemon struct {
	cmd       *exec.Cmd
	addr      string
	telemetry string // host:port of -telemetry, empty when untraced
	chainPath string
	log       *os.File
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon spawns the real meterd binary for workload w in dir and
// returns once its MQTT listener accepts connections.
func startDaemon(bin, dir string, w workload, traced bool) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	d := &daemon{
		addr:      fmt.Sprintf("127.0.0.1:%d", port),
		chainPath: filepath.Join(dir, "agg1.chain"),
	}
	args := []string{"-id", aggID, "-addr", d.addr, "-chain", d.chainPath}
	args = append(args, w.daemonArgs(dir)...)
	if traced {
		tport, err := freePort()
		if err != nil {
			return nil, err
		}
		d.telemetry = fmt.Sprintf("127.0.0.1:%d", tport)
		args = append(args, "-telemetry", d.telemetry, "-trace-every", strconv.Itoa(traceEvery))
	}
	d.log, err = os.Create(filepath.Join(dir, "meterd.log"))
	if err != nil {
		return nil, err
	}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stdout = d.log
	d.cmd.Stderr = d.log
	if err := d.cmd.Start(); err != nil {
		d.log.Close()
		return nil, fmt.Errorf("start meterd: %w", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", d.addr, time.Second)
		if err == nil {
			conn.Close()
			return d, nil
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("meterd did not listen on %s: %w", d.addr, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// cpu returns the user and system CPU time the daemon has used so far, read
// from /proc: rusage of a child exists only once it has exited, and the
// measured interval ends before that.
func (d *daemon) cpu() (user, sys time.Duration, err error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, 0, err
	}
	// The command name, field 2, is parenthesised and may hold spaces.
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, 0, errors.New("unexpected /proc stat format")
	}
	// utime and stime are fields 14 and 15, in USER_HZ ticks of 10 ms.
	ut, err1 := strconv.ParseInt(fields[11], 10, 64)
	st, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, errors.New("unexpected /proc stat format")
	}
	const tick = 10 * time.Millisecond
	return time.Duration(ut) * tick, time.Duration(st) * tick, nil
}

// peakRSSMB reads the high-water mark of a process's resident set from
// /proc, 0 once the process is gone. The ru_maxrss a parent gets from wait4
// will not do: Linux carries it over exec, so a child's figure starts at
// the size of the process that spawned it.
func peakRSSMB(pid string) float64 {
	raw, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	_, rest, ok := strings.Cut(string(raw), "VmHWM:")
	if !ok {
		return 0
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return 0
	}
	kb, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}

// stop sends SIGTERM, on which meterd seals what is pending and writes its
// chain files, and waits for the exit. It returns the time that took and the
// child's peak resident set, polled until the process is gone: writing the
// chain files is where the peak is reached.
func (d *daemon) stop() (persist time.Duration, rssMB float64, err error) {
	defer d.log.Close()
	pid := strconv.Itoa(d.cmd.Process.Pid)
	rssMB = peakRSSMB(pid)
	start := time.Now()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, 0, err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	poll := time.NewTicker(5 * time.Millisecond)
	defer poll.Stop()
	timeout := time.After(120 * time.Second)
	for {
		select {
		case err = <-done:
			persist = time.Since(start)
			if err != nil {
				return persist, rssMB, fmt.Errorf("meterd exit: %w", err)
			}
			return persist, rssMB, nil
		case <-poll.C:
			rssMB = max(rssMB, peakRSSMB(pid))
		case <-timeout:
			_ = d.cmd.Process.Kill() // reported as the error below
			<-done
			return 0, 0, errors.New("meterd did not exit within 120 s of SIGTERM")
		}
	}
}

// kill ends a daemon whose ledger is of no interest.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already gone is fine
	_ = d.cmd.Wait()         // reaps; the exit status is the kill
	d.log.Close()
}
