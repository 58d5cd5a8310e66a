package main

import (
	"hash/fnv"
	"runtime"
	"time"
)

// hostInfo travels with every result file so that numbers taken on
// different machines carry their own yardstick.
type hostInfo struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// CalibrationNs is the calibration kernel's time before the workloads;
	// CalibrationAfterNs the same kernel afterwards. More than 10% apart
	// means the host's speed changed under the run.
	CalibrationNs      float64 `json:"calibration_ns"`
	CalibrationAfterNs float64 `json:"calibration_after_ns"`
}

func newHostInfo() hostInfo {
	return hostInfo{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CalibrationNs: calibrate(),
	}
}

// noisy reports whether the two calibrations differ by more than 10%.
func (h hostInfo) noisy() bool {
	lo, hi := h.CalibrationNs, h.CalibrationAfterNs
	if lo > hi {
		lo, hi = hi, lo
	}
	return hi > 1.1*lo
}

// calibrate times a fixed pure-Go kernel — the two things the simulators
// spend their time on, a 4-ary heap of timestamps and hashing — and returns
// the median of five runs in ns. The kernel works in storage allocated and
// touched beforehand, so that the state of the Go heap does not enter into it.
func calibrate() float64 {
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	heap := make([]uint64, 0, calibrationKeys)
	sink += calibrationKernel(buf, heap)
	samples := make([]float64, 5)
	for i := range samples {
		t := time.Now()
		sink += calibrationKernel(buf, heap)
		samples[i] = float64(time.Since(t))
	}
	return median(samples)
}

const calibrationKeys = 1 << 16

// calibrationKernel pushes calibrationKeys xorshift keys onto a 4-ary heap
// built in heap's storage, pops them all, and hashes buf.
func calibrationKernel(buf []byte, heap []uint64) uint64 {
	x := uint64(88172645463325252)
	for i := 0; i < calibrationKeys; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		heap = append(heap, x)
		for c := len(heap) - 1; c > 0; {
			p := (c - 1) / 4
			if heap[p] <= heap[c] {
				break
			}
			heap[p], heap[c] = heap[c], heap[p]
			c = p
		}
	}
	var acc uint64
	for len(heap) > 0 {
		acc ^= heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for p := 0; ; {
			least := p
			for c := 4*p + 1; c <= 4*p+4 && c < len(heap); c++ {
				if heap[c] < heap[least] {
					least = c
				}
			}
			if least == p {
				break
			}
			heap[p], heap[least] = heap[least], heap[p]
			p = least
		}
	}
	h := fnv.New64a()
	h.Write(buf)
	return acc ^ h.Sum64()
}
