package main

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks, or 0 for an empty slice.
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

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// which is how the benchmark's spread rule is defined.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		m := median(xs)
		return m, m
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(j int) float64 {
		m := float64(n + 1)
		pos := float64(j) * m / 4
		i := int(math.Floor(pos))
		frac := pos - float64(i)
		if i < 1 {
			i, frac = 1, 0
		}
		if i >= n {
			i, frac = n-1, 1
		}
		return s[i-1] + (s[i]-s[i-1])*frac
	}
	return at(1), at(3)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// splitmix is the SplitMix64 finalizer; deriveSeed chains it so every
// input the benchmark generates is a pure function of the --seed value.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func deriveSeed(seed uint64, parts ...uint64) uint64 {
	x := splitmix(seed)
	for _, p := range parts {
		x = splitmix(x ^ p)
	}
	return x
}

// digester accumulates a workload's simulated outputs into one hex digest.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) add(parts ...string) {
	for _, p := range parts {
		d.h.Write([]byte(p))
		d.h.Write([]byte{0})
	}
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:32] }
