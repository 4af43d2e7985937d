package main

import (
	"math/rand"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// The speed probe's reference times: the median of each part over the
// runs the bounds were set from (see README.md). The end-to-end times
// are reported at this probe speed.
const (
	formatRefS = 0.0216
	chaseRefS  = 0.0219
	probeRefS  = formatRefS + chaseRefS
)

// speedProbe measures how fast the machine runs right now. On a shared
// host the same job takes up to 45% longer, in wall and in CPU time,
// when neighbours load the physical cores, and every time metric moves
// with it. Float formatting in particular switches, within seconds,
// between two speeds almost a factor of two apart.
//
// The probe times two fixed pieces of work that call no program code:
// it formats floats into one growing CSV-like buffer (the CSV and JSON
// encoders' kind of work), and it chases pointers through 16 MiB (their
// memory traffic). It counts its own thread's CPU time, so threads
// that compete with it for a CPU do not slow it. It runs in the helper
// process (see helper).
type speedProbe struct {
	floats []float64
	out    []byte
	next   []uint32
	at     uint32
}

// probeSample is one probe: the thread CPU seconds of each part.
type probeSample struct {
	format, chase float64
}

func (p probeSample) total() float64 { return p.format + p.chase }

// medianProbe is the median of each part of ps.
func medianProbe(ps []probeSample) probeSample {
	var f, c []float64
	for _, p := range ps {
		f = append(f, p.format)
		c = append(c, p.chase)
	}
	return probeSample{format: median(f), chase: median(c)}
}

func newSpeedProbe() *speedProbe {
	rng := rand.New(rand.NewSource(1))
	p := &speedProbe{floats: make([]float64, 1<<14), out: make([]byte, 0, 4<<20), next: make([]uint32, 1<<22)}
	for i := range p.floats {
		p.floats[i] = rng.NormFloat64() * 1e3
	}
	// Sattolo's shuffle: one cycle through every slot, so each step of
	// the chase is a cache miss.
	for i := range p.next {
		p.next[i] = uint32(i)
	}
	for i := len(p.next) - 1; i > 0; i-- {
		j := rng.Intn(i)
		p.next[i], p.next[j] = p.next[j], p.next[i]
	}
	return p
}

// run does one probe. The caller must be locked to its OS thread.
func (p *speedProbe) run() probeSample {
	t0 := threadCPU()
	p.out = p.out[:0]
	for r := 0; r < 8; r++ {
		for _, f := range p.floats {
			p.out = strconv.AppendFloat(p.out, f, 'g', -1, 64)
			p.out = append(p.out, ',')
		}
	}
	t1 := threadCPU()
	for k := 0; k < 1<<17; k++ {
		p.at = p.next[p.at]
	}
	t2 := threadCPU()
	return probeSample{format: (t1 - t0).Seconds(), chase: (t2 - t1).Seconds()}
}

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0) //nolint:errcheck // cannot fail for this clock
	return time.Duration(ts.Nano())
}
