package main

import (
	"slices"
	"time"
)

// yardRefMS is the yardstick's nominal duration on the reference host.
// Every end-to-end time is reported as raw × yardRefMS / (yardstick time
// near the op), so a run taken while the host is in a slow state reads
// the same as one taken in a fast state. Changing the constant or the
// kernel below rescales every normalised metric: it is a benchmark
// change, never part of a change that claims a gain.
const yardRefMS = 7.0

// yardItems sizes the kernel to about yardRefMS on the reference host.
const yardItems = 40000

// yardArena is the kernel's memory, allocated once. The kernel itself
// allocates nothing and stores no pointers, so the garbage collector
// never runs because of it, never makes it assist, and charges it no
// write barriers: its time says how fast the host is, not how large the
// program's heap has grown.
type yardArena struct {
	rank map[uint64]uint32
	keys []uint64
	next []uint32
}

var yard = yardArena{
	rank: make(map[uint64]uint32, yardItems),
	keys: make([]uint64, 0, yardItems),
	next: make([]uint32, yardItems),
}

// yardstick is the frozen host-speed probe: map inserts and lookups, a
// sort and a linked walk over a fixed pseudo-random sequence — hashing,
// branchy comparisons and dependent loads across a working set of a few
// megabytes, the instruction and memory mix the compiler's cost tables
// and the exec inspector lean on. It uses only the standard library,
// runs on the calling goroutine, and returns a checksum that is the
// same on every call and every host.
func yardstick() uint64 {
	clear(yard.rank)
	keys := yard.keys[:0]
	x := uint64(0x9E3779B97F4A7C15)
	yard.next[0] = 0
	for i := uint32(0); i < yardItems; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		yard.rank[x] = i
		keys = append(keys, x)
		if i > 0 {
			// Thread cell i into the ring behind a cell drawn from the
			// ones before it, so the walk below jumps about the arena.
			j := uint32(x % uint64(i))
			yard.next[i], yard.next[j] = yard.next[j], i
		}
	}
	slices.Sort(keys)
	var sum uint64
	for i, k := range keys {
		sum = sum*1099511628211 + uint64(yard.rank[k]) + uint64(i)
	}
	for c, n := uint32(0), 0; n < yardItems; c, n = yard.next[c], n+1 {
		sum ^= keys[c] + uint64(c)
	}
	return sum
}

// yardChecksum is yardstick's fixed result; a mismatch means the kernel
// was edited or miscompiled and every normalised number is void.
const yardChecksum uint64 = 0x453a6ae435de1606

// timeYard runs the yardstick once and returns its wall time in ms.
func timeYard() float64 {
	t := time.Now()
	if yardstick() != yardChecksum {
		panic("bench: yardstick checksum changed")
	}
	return msSince(t)
}
