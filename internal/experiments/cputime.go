package experiments

import (
	"syscall"
	"time"
)

// minBatchCPU is how much CPU one timing batch must use: a few passes of
// even the costliest block, so the minimum below has several to pick
// from.
const minBatchCPU = 50 * time.Millisecond

// processCPU is the CPU time this process has used, user plus system.
func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuPerCall measures one call of fn in process CPU time rather than
// wall time, so time the process spends descheduled does not count. fn
// repeats in three batches of at least minBatchCPU each, every call
// timed on its own, and the cheapest call is the figure: interference —
// a GC cycle, a neighbour on a shared core thrashing the caches — only
// adds to a call, and a per-batch mean lets one busy stretch set a row.
func cpuPerCall(fn func()) time.Duration {
	best := time.Duration(-1)
	for batch := 0; batch < 3; batch++ {
		for used := time.Duration(0); used < minBatchCPU; {
			start := processCPU()
			fn()
			d := processCPU() - start
			used += d
			if best < 0 || d < best {
				best = d
			}
		}
	}
	return best
}
