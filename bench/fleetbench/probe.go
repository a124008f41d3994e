package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The speed probe. The machines this benchmark runs on are small shared
// VMs whose capacity drifts by tens of percent over minutes, whatever the
// code under test does: neighbours slow the core down (the same binary
// retires fewer instructions per second), and the host takes the core
// away altogether (steal time). The window measures both. The probe is
// a fixed piece of CPU work, run in this process every probeEvery: how
// long it takes says how fast a core is while it runs. /proc/stat says
// what share of the CPU time the machine wanted it was granted (busy ÷
// (busy + steal); the probe is too short to be preempted often enough
// to see that). Their product is the window's capacity, relative to a
// reference machine on which the probe takes probeNominal and nothing
// is stolen, and it scales the time-based figures listed in
// scaled. A change to the code under test can move neither the
// probe nor the steal counter, so it shows in full; a slow quarter of
// an hour on the host cancels out.
const (
	probeEvery   = 50 * time.Millisecond
	probeSteps   = 100000
	probeNominal = 300 * time.Microsecond
)

// scaled lists, per workload, the figures that are scaled to the
// reference machine: wall-clock figures by the window's capacity, CPU
// time (which stolen time is no part of) by the probe's speed alone. On
// the closed loops those are the figures the loop sets: it keeps the
// machine saturated whatever the code under test costs, so how fast it
// turns is how fast the machine is. query-mix's record rate is set by
// its writer's timer, not by the machine, and the CPU per record that
// follows from it is left alone too. fleet-live is an open loop below
// capacity: its rates are the schedule's, but the time a chunk takes,
// and the CPU time it costs, are the machine's.
var scaled = map[string][]string{
	"bulk-binary": {"records_per_s", "cpu_ns_per_record", "latency_p50_ms", "latency_p99_ms", "ops_per_s"},
	"bulk-jsonl":  {"records_per_s", "cpu_ns_per_record", "latency_p50_ms", "latency_p99_ms", "ops_per_s"},
	"fleet-live":  {"cpu_ns_per_record", "latency_p50_ms", "latency_p99_ms"},
	"query-mix":   {"latency_p50_ms", "latency_p99_ms", "ops_per_s"},
}

// probeBuf is 256 KiB: between two probes the programs under test push
// it out of the core's caches, so the walk refills it from the shared
// cache and memory and feels what the programs feel — a busy sibling
// thread, a slow clock, and neighbours contending for the memory system —
// without itself being large enough to disturb them.
var probeBuf [1 << 15]uint64

// speedProbe does the fixed work once and returns how long it took: a
// dependent chain of xorshift steps, each touching one word of
// probeBuf. The probe has just slept, so it first spins for a fifth of
// that work in registers, untimed (the timed chain continues from where
// the spin ends, so it cannot be elided): waking the core says how idle
// the machine is, not how fast.
func speedProbe() time.Duration {
	x := uint64(88172645463325252)
	for i := 0; i < probeSteps/5; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	t0 := time.Now()
	for i := 0; i < probeSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		probeBuf[x&(1<<15-1)] += x
	}
	return time.Since(t0)
}

// hostCPU is the machine-wide CPU accounting of /proc/stat, in ticks.
type hostCPU struct {
	total, steal, idle int64
}

// readHostCPU reads the aggregate cpu line of /proc/stat.
func readHostCPU() (hostCPU, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	var h hostCPU
	for i, s := range f[1:9] { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return hostCPU{}, fmt.Errorf("/proc/stat: %w", err)
		}
		h.total += v
		switch i {
		case 3, 4:
			h.idle += v
		case 7:
			h.steal = v
		}
	}
	return h, nil
}

// hostState is what the machine was like over one metered interval.
type hostState struct {
	probeUs float64 // median probe time
	speed   float64 // probeNominal ÷ median probe time
	// stealShare and idleShare are the shares of the machine's CPU time
	// that the host took from the VM, and that sat idle; granted is the
	// share the VM got of the CPU time it wanted, busy ÷ (busy + steal).
	stealShare, idleShare, granted float64
}

func (h hostState) String() string {
	return fmt.Sprintf("speed %.4f (probe %.1f us, reference %v), steal share %.4f, idle share %.4f, granted %.4f, capacity %.4f",
		h.speed, h.probeUs, probeNominal, h.stealShare, h.idleShare, h.granted, h.capacity())
}

// capacity is how much wall-clock work the machine did per second,
// relative to the reference machine.
func (h hostState) capacity() float64 { return h.speed * h.granted }

// meter runs the speed probe and brackets /proc/stat over an interval.
type meter struct {
	before hostCPU
	probe  samples
	stop   chan struct{}
	wg     sync.WaitGroup
}

func startMeter() (*meter, error) {
	before, err := readHostCPU()
	if err != nil {
		return nil, err
	}
	m := &meter{before: before, stop: make(chan struct{})}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
				m.probe.add(speedProbe())
			}
		}
	}()
	return m, nil
}

// finish stops the probe and returns the interval's host state. An
// interval too short for a single probe reads as the reference speed.
func (m *meter) finish() (hostState, error) {
	close(m.stop)
	m.wg.Wait()
	after, err := readHostCPU()
	if err != nil {
		return hostState{}, err
	}
	h := hostState{speed: 1, granted: 1}
	if p := m.probe.percentile(50); p > 0 {
		h.probeUs = p * 1e3
		h.speed = float64(probeNominal) / float64(time.Millisecond) / p
	}
	if total := after.total - m.before.total; total > 0 {
		steal, idle := after.steal-m.before.steal, after.idle-m.before.idle
		h.stealShare = float64(steal) / float64(total)
		h.idleShare = float64(idle) / float64(total)
		if wanted := total - idle; wanted > 0 {
			h.granted = float64(wanted-steal) / float64(wanted)
		}
	}
	return h, nil
}
