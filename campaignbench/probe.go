package main

import (
	"math/rand/v2"
	"sync"
	"time"
)

// The host probe measures how fast the machine is running right now,
// with code of the benchmark's own that no change to the program can
// alter. On a shared host, other tenants' load on the shared caches
// slows campaign work by 20% or more for tens of seconds at a time, so
// raw timings drift between runs far beyond any useful bound. The
// campaign's working set is a netlist of a few hundred kilobytes, so
// the probe chases pointers through a random cycle of the same size,
// one chase per worker slot, concurrently. Each sample runs the probe
// right before and right after its measured phase, and the parent
// scales the sample's timings by refProbeNs over the probe's mean.

const (
	probeEntries = 1 << 16 // 256 KiB of uint32 links per worker slot
	probeSteps   = 4 << 20 // about 25 ms per probe on the reference host
	// refProbeNs is the probe's median ns per step on the host the
	// benchmark was defined on (2-CPU Linux container, Intel Xeon): a
	// timing reported by the benchmark is what the sample would have
	// taken with the probe at this speed.
	refProbeNs = 5.8
)

type hostProbe struct {
	next [workerSlots][]uint32
}

func newHostProbe() *hostProbe {
	p := &hostProbe{}
	for k := range p.next {
		perm := rand.New(rand.NewPCG(uint64(k)+1, 0x9e37)).Perm(probeEntries)
		next := make([]uint32, probeEntries)
		for i := range perm {
			next[perm[i]] = uint32(perm[(i+1)%probeEntries])
		}
		p.next[k] = next
	}
	return p
}

// nsPerStep runs one chase per worker slot concurrently and returns
// their mean time per step.
func (p *hostProbe) nsPerStep() float64 {
	var ns [workerSlots]float64
	var wg sync.WaitGroup
	for k := range p.next {
		wg.Add(1)
		go func() {
			defer wg.Done()
			next, at := p.next[k], uint32(0)
			t := time.Now()
			for range probeSteps {
				at = next[at]
			}
			ns[k] = float64(time.Since(t).Nanoseconds()) / probeSteps
			if at == probeEntries { // never true; keeps the chase from being optimised away
				ns[k] = -1
			}
		}()
	}
	wg.Wait()
	return sum(ns[:]) / workerSlots
}
