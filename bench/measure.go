package main

import (
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// sample is what one timed op cost.
type sample struct {
	wallMs, cpuMs  float64
	mallocs, bytes float64
}

// cpuTime is the process's user+system time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocated returns the process's cumulative heap allocations. It reads
// runtime/metrics, not ReadMemStats: that one stops the world and
// flushes every allocation cache, which the op that follows then pays
// for.
func allocated() (objects, bytes float64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64())
}

// timed runs fn once. The allocation and CPU counters are read outside
// the wall-clock region.
func timed(fn func() error) (sample, error) {
	o0, b0 := allocated()
	c0 := cpuTime()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0)
	c1 := cpuTime()
	o1, b1 := allocated()
	return sample{wallMs: ms(wall), cpuMs: ms(c1 - c0), mallocs: o1 - o0, bytes: b1 - b0}, err
}

// calibSink keeps the calibration kernel's results alive.
var calibSink uint64

// calibRefMs is what the calibration kernel takes on the unloaded
// 2-core VM the first numbers were taken on. Timings are reported as
// measured × calibRefMs ÷ (the run's median kernel time): the box's
// speed drifts by tens of percent over minutes (neighbours sharing its
// caches and cores), the kernel drifts with it, and the quotient
// repeats two to three times better than the raw time (README, sizing
// facts).
const calibRefMs = 18.0

type calibNode struct {
	key  uint64
	next *calibNode
}

// calibrate runs a fixed kernel and returns how long it took: 3 M
// dependent xorshift steps, 256 k scattered read-modify-writes over
// buf (16 MiB), and 40 k small allocations linked, mapped and sorted.
// It calls nothing in this repository, so a change to the repository
// cannot move it; the three parts load what the workloads load —
// the core, the caches and the allocator.
func calibrate(buf []byte) float64 {
	t0 := time.Now()
	x := uint64(0x9E3779B97F4A7C15)
	step := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 0; i < 3_000_000; i++ {
		step()
	}
	for i := 0; i < 1<<18; i++ {
		buf[step()%uint64(len(buf))]++
	}
	byKey := make(map[uint64]*calibNode, 1024)
	var head *calibNode
	for i := 0; i < 40_000; i++ {
		head = &calibNode{key: step(), next: head}
		byKey[head.key&0xffff] = head
	}
	keys := make([]uint64, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	calibSink += x + keys[0] + head.key
	return ms(time.Since(t0))
}

const tmpfsMagic = 0x01021994

// onTmpfs reports whether dir is memory-backed. A disk-backed run must
// not be compared with a tmpfs one: serve_upload fsyncs its spool.
func onTmpfs(dir string) bool {
	var st syscall.Statfs_t
	return syscall.Statfs(dir, &st) == nil && st.Type == tmpfsMagic
}
