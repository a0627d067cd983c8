package main

import (
	"crypto/sha256"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Benchmark hosts are often shared, and another tenant on the same
// physical cores can slow every instruction this process runs by a third
// for minutes at a time: far more than most changes under test, and for
// longer than one run. So the benchmark samples how fast the host runs a
// fixed kernel, which no geoserp change can touch, right before and after
// each stretch it times, and reports every timed end-to-end figure at a
// nominal host speed: a rate divided by the speed factor, a duration
// multiplied by it. The report lines also give the raw figures.

// speedNominal is speedKernel's rate per goroutine, in calls per second,
// on the 2-vCPU Intel Xeon (2.1 GHz) the benchmark was defined on, at a
// typical moment. A speed factor of 1 means the host runs that fast.
const speedNominal = 93000.0

// A host speed sample runs speedKernel on every P for speedBursts bursts
// of speedBurst each and keeps each P's fastest burst: a burst that a GC
// cycle or a scheduler hiccup of this process hit is discarded, while a
// slowdown from another tenant lasts longer than the whole sample and
// slows every burst alike.
const (
	speedBursts = 10
	speedBurst  = 10 * time.Millisecond
)

// speedState is one goroutine's kernel input: fixed, allocated once, so
// the kernel itself allocates nothing and never triggers a collection.
type speedState struct {
	buf   [4096]byte
	keys  []string
	m     map[string]int
	ints  []int
	work  []int
	digit []byte
	sink  uint64
}

func newSpeedState() *speedState {
	st := &speedState{m: make(map[string]int, 64), ints: make([]int, 256), work: make([]int, 256), digit: make([]byte, 0, 32)}
	for i := range st.buf {
		st.buf[i] = byte(i * 31)
	}
	for i := 0; i < 64; i++ {
		k := "k" + strconv.Itoa(i*7919%1000)
		st.keys = append(st.keys, k)
		st.m[k] = i
	}
	for i := range st.ints {
		st.ints[i] = (i * 7919) % 1009
	}
	return st
}

// speedKernel is a fixed mix of the kinds of work the serving chain does —
// hashing, map lookups, number formatting, a sort — on standard-library
// code only, so its cost moves with the host and never with the program
// under test.
func (st *speedState) speedKernel() {
	s := sha256.Sum256(st.buf[:])
	for _, k := range st.keys {
		st.sink += uint64(st.m[k])
	}
	for i := 0; i < 64; i++ {
		st.digit = strconv.AppendInt(st.digit[:0], int64(i)*1_000_003, 10)
		st.sink += uint64(len(st.digit))
	}
	copy(st.work, st.ints)
	sort.Ints(st.work)
	st.sink += uint64(s[0]) + uint64(st.work[128])
}

// hostSpeed samples the host's speed as a multiple of speedNominal: the
// mean over Ps of each P's fastest burst rate.
func hostSpeed() float64 {
	procs := runtime.GOMAXPROCS(0)
	best := make([]float64, procs)
	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			st := newSpeedState()
			for b := 0; b < speedBursts; b++ {
				n := 0
				start := wall.Now()
				for wall.Now().Sub(start) < speedBurst {
					st.speedKernel()
					n++
				}
				if r := float64(n) / wall.Now().Sub(start).Seconds(); r > best[g] {
					best[g] = r
				}
			}
		}(g)
	}
	wg.Wait()
	var sum float64
	for _, r := range best {
		sum += r
	}
	return sum / float64(procs) / speedNominal
}
