package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the q-th percentile (q in [0,100]) of xs by linear
// interpolation between closest ranks, the same rule as numpy's default
// and Python's statistics.quantiles(method="inclusive"). xs is not
// modified. An empty input yields 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, q)
}

// percentileSorted is percentile over an already ascending slice.
func percentileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	if q <= 0 {
		return s[0]
	}
	if q >= 100 {
		return s[len(s)-1]
	}
	pos := q / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// windowedPercentile splits xs into consecutive windows of w samples,
// takes the q-th percentile of each, and returns the median of those and
// the number of windows. A trailing window of fewer than w/2 samples is
// dropped. With fewer than w samples the whole input is one window.
func windowedPercentile(xs []float64, w int, q float64) (float64, int) {
	if w <= 0 || len(xs) <= w {
		return percentile(xs, q), 1
	}
	var per []float64
	for lo := 0; lo < len(xs); lo += w {
		hi := min(lo+w, len(xs))
		if hi-lo < w/2 {
			break
		}
		per = append(per, percentile(xs[lo:hi], q))
	}
	return median(per), len(per)
}

// failureShare is failed/attempted, 0 when nothing was attempted.
func failureShare(attempted, failed int) float64 {
	if attempted <= 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// ratio is num/den, 0 when den is 0 — for rates whose base can be empty in
// the tiny smoke configuration.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// cpuSeconds returns a process's user+system CPU time: this process's
// (pid 0) from getrusage, to the microsecond; another's from
// /proc/<pid>/stat, in clock ticks.
func cpuSeconds(pid int) float64 {
	if pid == 0 {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return 0
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0
	}
	// Fields after the parenthesized command name; utime and stime are
	// the 14th and 15th fields of the whole line, in clock ticks.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0
	}
	return (ut + st) / clockTicks
}

// clockTicks is USER_HZ, the unit of /proc CPU times on Linux.
const clockTicks = 100

// peakRSSMB reads a process's high-water resident set (VmHWM) from
// /proc/<pid>/status, in MiB. pid 0 means this process.
func peakRSSMB(pid int) float64 {
	path := "/proc/self/status"
	if pid > 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) == 0 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
