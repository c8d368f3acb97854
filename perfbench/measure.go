package main

import (
	"math"
	"math/bits"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Host-drift rescaling. On a shared VM the same code can run 20–30%
// faster or slower for minutes at a time, sometimes with no steal time
// showing and sometimes with a third of the CPU stolen, so raw timings
// of two runs of the same code drift apart. The benchmark therefore
// times a fixed reference workload, which calls no repository code, at
// quiescent points next to the measured windows, reads the host's steal
// ticks alongside, and rescales every window to the nominal host: the
// result reads as if the host ran at its nominal speed, unstolen,
// throughout. Raw times are kept and printed as diagnostics.

const (
	refChains = 20_000  // multiply-reduce steps per chain
	refWords  = 1 << 19 // 4 MiB sweep buffer
	// refNominal is the reference workload's time on the nominal host:
	// the quiet-phase median of hostRef.mark on a 2-vCPU x86-64 VM.
	refNominal = 390 * time.Microsecond
	p61        = 1<<61 - 1
)

var (
	refSink uint64
	refBuf  = func() []uint64 {
		b := make([]uint64, refWords)
		for i := range b {
			b[i] = uint64(i) * 0x9E3779B97F4A7C15
		}
		return b
	}()
)

func mulmod61(x, y uint64) uint64 {
	hi, lo := bits.Mul64(x, y)
	r := (hi<<3 | lo>>61) + (lo & p61)
	if r >= p61 {
		r -= p61
	}
	return r
}

// refLoop runs the reference workload once: four independent chains of
// multiply-reduce modulo 2^61−1, the arithmetic the provers and
// verifiers spend their time in, then a cache-line-strided sweep over a
// buffer larger than L2, like their table scans. A register-only loop
// alone tracks host drift poorly: in one measured phase shift it sped
// up 16% while the ops sped up 33%.
func refLoop() time.Duration {
	t0 := time.Now()
	a, b, c, d := uint64(3), uint64(5), uint64(7), uint64(11)
	for i := 0; i < refChains; i++ {
		a = mulmod61(a, 0x1234567)
		b = mulmod61(b, 0x7654321)
		c = mulmod61(c, 0x1111111)
		d = mulmod61(d, 0x2222222)
	}
	var s uint64
	for i := 0; i < len(refBuf); i += 8 {
		s += refBuf[i]
	}
	dur := time.Since(t0)
	refSink += a ^ b ^ c ^ d ^ s
	return dur
}

// hostRef is the run's sequence of reference samples.
type hostRef struct{ samples []refSample }

// refSample is one reference timing, taken at a point in the run, with
// the host's steal and total CPU ticks at that point.
type refSample struct {
	at           time.Time
	d            time.Duration
	steal, total uint64
}

const (
	// refEvery spaces reference samples: mark is a no-op closer than
	// this to the previous sample.
	refEvery = 20 * time.Millisecond
	// refSpan is the half-width of the neighbourhood a window's factor
	// is taken over. Single samples jitter by ±25% from one to the
	// next; the median over a second follows sustained drift, which is
	// what separates runs, and ignores the jitter.
	refSpan = 500 * time.Millisecond
)

// mark takes one reference sample: the fastest of three loops, so a
// single interrupt or a stolen time slice does not read as a slow host.
func (h *hostRef) mark() {
	now := time.Now()
	if n := len(h.samples); n > 0 && now.Sub(h.samples[n-1].at) < refEvery {
		return
	}
	best := refLoop()
	for i := 0; i < 2; i++ {
		if d := refLoop(); d < best {
			best = d
		}
	}
	steal, total := cpuTicks()
	h.samples = append(h.samples, refSample{at: now, d: best, steal: steal, total: total})
}

// stealExposure is how hard stolen time stalls a window of wall time
// w: its wall time is scaled by (1−steal)^stealExposure(w). A window
// much shorter than the gaps between stolen slices is rarely hit, so
// its median is not inflated at all; a long one is hit throughout, and
// stalls whenever either of the two vCPUs its threads run on is
// stolen, about (1−steal)². stealGap is the window length at which
// half of that applies; runs at 0–30% steal on the development VM, with
// ops from 0.08 ms to 40 ms, left the least spread with 5 ms.
func stealExposure(w time.Duration) float64 {
	const stealGap = 5 * time.Millisecond
	return 2 * float64(w) / float64(w+stealGap)
}

// factors rescales a window that began at t. speed is nominal over the
// median reference time within refSpan of t. steal is the share of the
// host's CPU time stolen by the hypervisor over the same stretch: a
// stolen slice stalls a window's threads without showing in the
// reference minima or in the process's CPU time, so wall times are
// also scaled by (1−steal)^stealExposure.
func (h *hostRef) factors(t time.Time) (speed, steal float64) {
	n := len(h.samples)
	lo := sort.Search(n, func(i int) bool { return !h.samples[i].at.Before(t.Add(-refSpan)) })
	hi := sort.Search(n, func(i int) bool { return h.samples[i].at.After(t.Add(refSpan)) })
	for hi-lo < 3 && (lo > 0 || hi < n) {
		lo, hi = max(0, lo-1), min(n, hi+1)
	}
	ds := make([]float64, 0, hi-lo)
	for _, s := range h.samples[lo:hi] {
		ds = append(ds, float64(s.d))
	}
	speed = float64(refNominal) / median(ds)
	first, last := h.samples[lo], h.samples[hi-1]
	if last.total > first.total {
		steal = float64(last.steal-first.steal) / float64(last.total-first.total)
	}
	return speed, steal
}

// span is one measured window: its start, and its wall and process CPU
// time.
type span struct {
	at        time.Time
	wall, cpu time.Duration
}

// cpuTicks reads the host's steal and total CPU ticks, summed over all
// CPUs, from /proc/stat; zeros where it is unavailable.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	// cpu user nice system idle iowait irq softirq steal guest guest_nice;
	// guest time is already counted in user.
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// cpuTime is the process's user+sys CPU time so far — both parties,
// since clients and servers share the process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (ru_maxrss) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// timer opens measured windows against the run's reference samples.
type timer struct{ host hostRef }

// time runs fn as one measured window.
func (t *timer) time(fn func() error) (span, error) {
	c0 := cpuTime()
	t0 := time.Now()
	err := fn()
	return span{at: t0, wall: time.Since(t0), cpu: cpuTime() - c0}, err
}

// seconds returns a window's wall and CPU seconds, rescaled to the
// nominal host or raw.
func (t *timer) seconds(s span, rescale bool) (wall, cpu float64) {
	wall, cpu = s.wall.Seconds(), s.cpu.Seconds()
	if rescale {
		speed, steal := t.host.factors(s.at)
		wall *= speed * math.Pow(1-steal, stealExposure(s.wall))
		cpu *= speed
	}
	return wall, cpu
}

// walls returns the windows' wall seconds, rescaled or raw.
func (t *timer) walls(ss []span, rescale bool) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i], _ = t.seconds(s, rescale)
	}
	return out
}

// sums returns the windows' total wall and CPU seconds.
func (t *timer) sums(ss []span, rescale bool) (wall, cpu float64) {
	for _, s := range ss {
		w, c := t.seconds(s, rescale)
		wall += w
		cpu += c
	}
	return wall, cpu
}

// quantile is the q-quantile of xs by linear interpolation between
// order statistics; NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// interquartileMean is the mean of the middle half of xs. Where a
// sample mixes two clusters in proportions that vary from run to run,
// it moves with the proportion smoothly; the median jumps between the
// clusters.
func interquartileMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := s[len(s)/4 : len(s)-len(s)/4]
	var sum float64
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}
