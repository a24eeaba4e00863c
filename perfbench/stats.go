package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the "R-7" rule); 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMiB reads the high-water resident set size (VmHWM) of process pid
// ("self" for this process) from /proc, in MiB.
func peakRSSMiB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("peak rss: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("peak rss: no VmHWM line for pid %s", pid)
}

// cpuTicks reads the host's total and stolen CPU time from /proc/stat, in
// clock ticks. Stolen time is time a virtual CPU was ready to run while the
// hypervisor ran something else; it slows every timed phase and is not the
// program's doing.
func cpuTicks() (total, steal float64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, fmt.Errorf("cpu ticks: %w", err)
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("cpu ticks: unexpected /proc/stat line %q", line)
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("cpu ticks: %w", err)
		}
		// user nice system idle iowait irq softirq steal; guest time is
		// already inside user.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal, nil
}
