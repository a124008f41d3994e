package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one system-under-test child process.
type proc struct {
	name string
	cmd  *exec.Cmd
	url  string
	args []string
	log  string
	done chan struct{} // closed once Wait has returned
}

// fleet is the set of real binaries one workload runs against, plus the
// scratch directory (journals, logs, binaries) that dies with it.
type fleet struct {
	dir   string
	nodes []*proc
	lb    *proc
	// entry is the base URL the load generator talks to: the balancer
	// when there is one, else the single node.
	entry string
}

// live tracks every started child and scratch directory so that an
// error path, the watchdog or a signal can tear all of it down.
var live struct {
	mu    sync.Mutex
	procs []*proc
	dirs  []string
}

// repoRoot walks up from the working directory to the module that owns
// cmd/dominod. `go run -C bench` starts the benchmark in bench/.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(mod, []byte("module github.com/domino5g/domino\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no github.com/domino5g/domino module above the working directory")
		}
		dir = parent
	}
}

// outDir is bench/out, the only place the benchmark writes.
func outDir(root string) string { return filepath.Join(root, "bench", "out") }

// newScratch makes a fresh directory under bench/out for one set-up.
func newScratch(root string) (string, error) {
	if err := os.MkdirAll(outDir(root), 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(outDir(root), "run-")
	if err != nil {
		return "", err
	}
	live.mu.Lock()
	live.dirs = append(live.dirs, dir)
	live.mu.Unlock()
	return dir, nil
}

// buildBinaries compiles the two programs under test into dir.
func buildBinaries(ctx context.Context, root, dir string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", dir+string(filepath.Separator), "./cmd/dominod", "./cmd/dominolb")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/dominod ./cmd/dominolb: %v\n%s", err, out)
	}
	return nil
}

// freeAddr asks the kernel for an unused loopback port. dominod logs
// the flag it was given, not the port it bound, so the benchmark picks
// the port and passes it in.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// spawn starts one child with its stderr in a log file under dir.
func spawn(dir, name, bin string, args ...string) (*proc, error) {
	logPath := filepath.Join(dir, name+".log")
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close()
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	// A benchmark that is itself killed must not leave children behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, args: args, log: logPath, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a killed child carries nothing
		close(p.done)
	}()
	live.mu.Lock()
	live.procs = append(live.procs, p)
	live.mu.Unlock()
	return p, nil
}

// waitHealthy polls /healthz until it answers 200, the child exits, or
// ctx ends.
func (p *proc) waitHealthy(ctx context.Context) error {
	client := &http.Client{Timeout: time.Second}
	for {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited during boot:\n%s", p.name, p.logTail())
		case <-ctx.Done():
			return fmt.Errorf("%s never became healthy: %w\n%s", p.name, ctx.Err(), p.logTail())
		default:
		}
		resp, err := client.Get(p.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (p *proc) logTail() string {
	b, err := os.ReadFile(p.log)
	if err != nil {
		return ""
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// kill stops the child and waits until it has ended.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill() // already-exited is fine
	<-p.done
}

// startNode boots one dominod on a free port.
func startNode(dir, id string, flags []string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", addr, "-node-id", id}, flags...)
	p, err := spawn(dir, id, filepath.Join(dir, "dominod"), args...)
	if err != nil {
		return nil, err
	}
	p.url = "http://" + addr
	return p, nil
}

// startLB boots dominolb in front of nodes.
func startLB(dir string, nodes []*proc) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	urls := make([]string, len(nodes))
	for i, n := range nodes {
		urls[i] = n.url
	}
	args := append([]string{"-addr", addr, "-backend", strings.Join(urls, ",")}, lbFlags...)
	p, err := spawn(dir, "lb", filepath.Join(dir, "dominolb"), args...)
	if err != nil {
		return nil, err
	}
	p.url = "http://" + addr
	return p, nil
}

// procs lists the fleet's children, balancer last.
func (f *fleet) procs() []*proc {
	ps := append([]*proc(nil), f.nodes...)
	if f.lb != nil {
		ps = append(ps, f.lb)
	}
	return ps
}

// stop kills the fleet's children, waits for each, and removes its
// scratch directory.
func (f *fleet) stop() {
	for _, p := range f.procs() {
		p.kill()
	}
	_ = os.RemoveAll(f.dir) // best effort; bench/out is ignored by git
}

// killAll is the error, watchdog and signal path: every child started
// by this process dies and every scratch directory goes.
func killAll() {
	live.mu.Lock()
	procs, dirs := live.procs, live.dirs
	live.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
	for _, d := range dirs {
		_ = os.RemoveAll(d)
	}
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat's
// utime and stime; it is 100 on every Linux the Go toolchain supports.
const clockTick = 10 * time.Millisecond

// cpuTime returns the user+system CPU time the child has used so far,
// dead threads included.
func (p *proc) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesised and may hold spaces; fields
	// count from after it. utime and stime are fields 14 and 15.
	rest := string(b[bytes.LastIndexByte(b, ')')+1:])
	fields := strings.Fields(rest)
	if len(fields) < 13 {
		return 0, fmt.Errorf("/proc stat of %s: %d fields", p.name, len(fields))
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc stat of %s: bad utime/stime %q %q", p.name, fields[11], fields[12])
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSSMB returns the child's high-water resident set in MiB.
func (p *proc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("/proc status of %s: no VmHWM", p.name)
}
