package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"jitgc/internal/telemetry"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count). It does not reorder xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean returns the geometric mean of positive xs; NaN when xs is empty
// or holds a non-positive value, since a ratio of zero has no log.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		if !(x > 0) {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// failedShare is failed ÷ attempted; 0 when nothing was attempted.
func failedShare(failed, attempted int64) float64 {
	if attempted <= 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// mergedP999 merges per-source latency histograms and returns their joint
// p99.9, the quantile a request sees regardless of which source issued it.
func mergedP999(hists []*telemetry.LogHist) time.Duration {
	all := telemetry.NewLogHist()
	for _, h := range hists {
		all.Merge(h)
	}
	return time.Duration(all.Quantile(0.999))
}

// exactQuantile returns the q-quantile of xs by the nearest-rank rule
// (sorting a copy).
func exactQuantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	i = max(0, min(i, len(s)-1))
	return s[i]
}

// ratio is a ÷ b, 0 when b is 0 (a counter with no denominator events).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// resetPeakRSS resets the process's resident-set high-water mark to the
// current resident set (Linux clear_refs value 5). Where the kernel refuses,
// the mark stays monotone over the process's life.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
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
			return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
