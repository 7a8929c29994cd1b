package main

import (
	"runtime"
	"slices"
	"sync"
	"time"
)

// Host-speed calibration. The benchmark runs on shared virtual machines
// whose speed drifts by tens of percent over minutes, in episodes
// longer than a run; adjacent runs agree, runs minutes apart do not, and
// no statistic over one run's own passes removes that. So an untraced
// pass times a fixed calibration job before each of its operations, and
// the end-to-end times are reported at the reference speed: measured
// time × calibRef / the run's median calibration time. The job uses
// none of the program's code and allocates under 4 KiB, so a change to
// the program moves the scaled times in the same proportion as the
// measured ones. The measured times are printed next to the scaled ones.

// calibRef is the calibration job's median time on the reference host,
// a 2-vCPU Intel Xeon virtual machine with Go 1.24 and GOMAXPROCS 2.
const calibRef = 9.2e-3 // s

// calibRows is the calibration job's fixed input, one set per P.
var calibRows = func() [][][]float64 {
	sets := make([][][]float64, runtime.GOMAXPROCS(0))
	for w := range sets {
		rows := make([][]float64, 192)
		for i := range rows {
			r := make([]float64, 16+i%8)
			for j := range r {
				r[j] = float64((i*31+j*17+w)%251) + 1
			}
			rows[i] = r
		}
		sets[w] = rows
	}
	return sets
}()

// calibSink keeps the calibration results alive.
var calibSink float64

// calibrate runs the calibration job — all-pairs Canberra sums and a
// sort per row, on every P at once — and returns its wall time.
func calibrate() float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	sums := make([]float64, len(calibRows))
	for w, rows := range calibRows {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := make([]float64, len(rows))
			var s float64
			for rep := range 2 {
				for i, a := range rows {
					for j, b := range rows {
						var c float64
						for k := range min(len(a), len(b)) {
							x := a[k] - b[k]
							if x < 0 {
								x = -x
							}
							c += x / (a[k] + b[k] + float64(rep))
						}
						d[j] = c
					}
					slices.Sort(d)
					s += d[len(d)/4] * float64(i%3)
				}
			}
			sums[w] = s
		}()
	}
	wg.Wait()
	for _, s := range sums {
		calibSink += s
	}
	return time.Since(t0).Seconds()
}
