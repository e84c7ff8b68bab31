package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// digestText fingerprints rendered output.
func digestText(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// digestBits fingerprints a weight vector bit for bit.
func digestBits(v []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// calibSink keeps the calibration loop's result observable so the
// compiler cannot drop the loop.
var calibSink uint64

// calibrate times a fixed integer loop that touches no memory and calls
// nothing in the repository: it reads the host's speed at the moment of
// the run, so host drift between two sets of runs shows here rather than
// as a regression of the program. On a shared 2-vCPU host its readings
// followed the FedDRL cell's pass times (correlation 0.74 over 138
// passes). Returns five repetitions, in ms.
func calibrate() []float64 {
	const iters = 20_000_000
	var reps []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		x := uint64(r) + 0x9e3779b97f4a7c15
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		reps = append(reps, ms(time.Since(t0)))
	}
	return reps
}
