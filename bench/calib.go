package main

import (
	"runtime"
	"sync"
	"time"
)

// A shared machine slows down and speeds up with its neighbours' load, in
// phases that last from seconds to minutes: the same repetition takes 30 %
// more CPU time in a bad phase, steal time stays at zero, and no statistic
// taken inside a 20-second run can average a phase away that outlasts the
// run. What does track the phases is a memory-bound reference kernel run
// beside the work: over 25-second windows, raw search_adhoc throughput
// spread by 14 % (interquartile range over median, 20 windows), throughput
// multiplied by the kernel's time by 3 %.
//
// So every bounded time metric is reported in calibrated time: wall time
// divided by how much slower than nominal the kernel ran around it. The
// kernel touches no code of the program under test and allocates nothing,
// and it runs right after a forced collection, so a change to the program
// cannot move it.

// nominalKernelMS is the kernel's time on an undisturbed run of the box the
// benchmark was defined on. It only fixes the unit: on another machine all
// calibrated times scale by one constant.
const nominalKernelMS = 20.0

// calibrator is the reference kernel: a dependent chain of loads through
// 16 MB of indices, each step followed by a lookup in a 128 k-entry map —
// cache misses, TLB misses and hashing, on as many goroutines as the
// engine has workers by default.
type calibrator struct {
	chain []uint32
	table map[uint64]uint64
	sink  uint64

	at   []time.Time // when each kernel run started
	slow []float64   // and how much slower than nominal it was
	last float64     // the program's total allocation when the latest one ended, MB
}

const (
	chainLen   = 1 << 22
	tableLen   = 1 << 17
	kernelStep = 150_000
	fibHash    = 0x9E3779B97F4A7C15
)

func newCalibrator() *calibrator {
	k := &calibrator{chain: make([]uint32, chainLen), table: make(map[uint64]uint64, tableLen)}
	for i := range k.chain {
		k.chain[i] = uint32((uint64(i)*2654435761 + 12345) % chainLen)
	}
	for i := uint64(0); i < tableLen; i++ {
		k.table[i*fibHash] = i
	}
	return k
}

// smoothing is how far on either side of a measured interval kernel runs
// still count towards its slowdown. One 20 ms run jitters by several per
// cent on its own; the phases it is there to catch last longer than this.
const smoothing = 3 * time.Second

// sample forces a collection (so that no concurrent mark phase of the
// program's making competes with the kernel), runs the kernel once and
// records its time as a multiple of nominal: 1 on an undisturbed machine,
// above 1 in a bad phase. Call it before and after everything that is
// timed; a call right after another, with next to nothing allocated in
// between (the end of one timed step is the start of the next), is answered
// by the run just made.
func (k *calibrator) sample() {
	if len(k.at) > 0 && totalAllocMB()-k.last < 1 {
		return
	}
	runtime.GC()
	workers := min(runtime.GOMAXPROCS(0), 2)
	sums := make([]uint64, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			idx, acc := uint32(g*7919+1), uint64(0)
			for i := 0; i < kernelStep; i++ {
				idx = k.chain[idx]
				acc += k.table[uint64(idx&(tableLen-1))*fibHash]
			}
			sums[g] = acc
		}(g)
	}
	wg.Wait()
	d := time.Since(start)
	for _, s := range sums {
		k.sink += s // keeps the loops from being optimised away
	}
	k.at = append(k.at, start)
	k.slow = append(k.slow, float64(d)/1e6/nominalKernelMS)
	k.last = totalAllocMB()
}

// slowdown is the median of the kernel runs in and around the interval
// from start to end.
func (k *calibrator) slowdown(start, end time.Time) float64 {
	var near []float64
	for i, at := range k.at {
		if !at.Before(start.Add(-smoothing)) && !at.After(end.Add(smoothing)) {
			near = append(near, k.slow[i])
		}
	}
	if len(near) == 0 {
		return 1
	}
	return median(near)
}
