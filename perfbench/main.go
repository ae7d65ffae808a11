// Command perfbench is the repository's wall-clock benchmark. It runs one
// workload as repeated batch jobs on the serial engine, each rep in a fresh
// child process, checks every output, and prints the end-to-end metrics
// (--trace 0) or the per-layer metrics of separate traced reps (--trace 1)
// as a JSON object on its last line of output.
//
//	perfbench --workload sort-1m --seed 1 --seconds 20 --trace 0
//
// run.py builds it from source and runs it; README.md says what each
// workload is for.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"syscall"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics of --trace 0, taken over untraced reps.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "frac"},
}

// perLayer are the metrics of --trace 1: medians over traced reps, whatever
// the workload. A layer a workload does not call reads 0.
var perLayer = func() []metricDef {
	ds := []metricDef{
		{"cluster.new_s", "s"},
		{"dsmsort.make_input_s", "s"},
		{"dsmsort.make_input_alloc_mb", "MB"},
		{"dsmsort.run_formation_s", "s"},
		{"dsmsort.run_formation_alloc_mb", "MB"},
		{"dsmsort.merge_pass_s", "s"},
		{"dsmsort.merge_pass_alloc_mb", "MB"},
		{"dsmsort.validate_s", "s"},
		{"cluster.build_report_s", "s"},
		{"trace.write_json_s", "s"},
		{"experiments.run_open_loop_s", "s"},
		{"experiments.run_open_loop_alloc_mb", "MB"},
		{"terraflow.from_basins_s", "s"},
		{"terraflow.run_s", "s"},
		{"terraflow.run_alloc_mb", "MB"},
		{"terraflow.reference_s", "s"},
		{"sim.handoff_ns", "ns"},
		{"sim.spawn_exit_ns", "ns"},
		{"sim.far_timer_ns", "ns"},
		{"pqueue.pop_min_ns", "ns"},
		{"records.sort_block_ns", "ns"},
		{"records.generate_mb_per_s", "MB/s"},
		{"records.checksum_mb_per_s", "MB/s"},
		{"sim.scheduler.wheel_hits", "count"},
		{"sim.scheduler.heap_spills", "count"},
		{"sim.scheduler.proc_reuses", "count"},
		{"dsmsort.pass1.runs", "count"},
		{"dsmsort.pass1.net_bytes", "count"},
		{"dsmsort.merge.offload_ops", "count"},
		{"heap.mallocs", "count"},
		{"gc.cycles", "count"},
		{"gc.pause_s", "s"},
	}
	for _, b := range cpuBuckets {
		ds = append(ds, metricDef{"cpu." + b, "s"})
	}
	return append(ds, metricDef{"trace_overhead_frac", "frac"})
}()

// engineEnv names the variables that would switch the sim engine; the
// benchmark clears them so it always measures the serial engine.
var engineEnv = []string{"LMAS_SIM_ENGINE", "LMAS_SIM_WORKERS", "LMAS_SIM_GROUPS"}

const (
	minReps      = 3                 // per kind of rep, however long they take
	childTimeout = 150 * time.Second // a rep that runs longer has hung
	hardStop     = 165 * time.Second // start no rep that could end past this
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: sort-1m, churn-100k, terraflow-192 or sort-observed")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 20, "measure for this long")
		traced  = flag.Int("trace", 0, "1 reports per-layer metrics from traced reps")
		tmp     = flag.String("tmp", filepath.Join(".bench_build", "tmp"), "directory for the files reps write")
		child   = flag.Bool("child", false, "run one rep in this process and print its sample")
	)
	flag.Parse()
	for _, v := range engineEnv {
		os.Unsetenv(v)
	}
	w, ok := lookup(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *child {
		s := runRep(w, w.size, *seed, *traced == 1, *tmp)
		b, err := json.Marshal(s)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(b))
		return
	}
	if err := os.MkdirAll(*tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%d\n", w.name, *seed, *seconds, *traced)
	fmt.Printf("# host nproc=%d GOMAXPROCS=%d go=%s rev=%s engine=serial\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gitRev())
	rep := func(traced bool) sample { return runChild(self, w.name, *seed, traced, *tmp) }
	untraced, tracedReps := collect(time.Duration(*seconds*float64(time.Second)), *traced == 1, rep)
	res := summarize(w, untraced, tracedReps, *traced == 1, os.Stdout)
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// gitRev is the VCS revision stamped into the binary, if it was built in a
// checkout that had one.
func gitRev() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// runChild runs one rep in a fresh child process, so peak RSS is the rep's
// own, and reads back its sample.
func runChild(self, name string, seed int64, traced bool, tmp string) sample {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	dir, err := os.MkdirTemp(tmp, "rep-")
	if err != nil {
		return sample{Err: err.Error()}
	}
	defer os.RemoveAll(dir)
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.CommandContext(ctx, self, "--child", "--workload", name,
		"--seed", strconv.FormatInt(seed, 10), "--trace", t, "--tmp", dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return sample{Err: fmt.Sprintf("child: %v", err)}
	}
	var s sample
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &s); err != nil {
		return sample{Err: fmt.Sprintf("child output: %v", err)}
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s.RSS = float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
	}
	return s
}

// collect runs reps one after another until the time is up and each kind
// has at least minReps; with traced it alternates untraced and traced reps.
func collect(d time.Duration, traced bool, rep func(traced bool) sample) (untraced, tracedReps []sample) {
	start := time.Now()
	var longest time.Duration
	for {
		enough := len(untraced) >= minReps && (!traced || len(tracedReps) >= minReps)
		elapsed := time.Since(start)
		if enough && (elapsed >= d || elapsed+longest > hardStop) {
			return untraced, tracedReps
		}
		t := time.Now()
		if traced && len(tracedReps) < len(untraced) {
			tracedReps = append(tracedReps, rep(true))
		} else {
			untraced = append(untraced, rep(false))
		}
		longest = max(longest, time.Since(t))
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// summarize checks the reps against each other and reduces them to the
// metrics, printing the workload's virtual time, report digest, spread and
// throughput as header lines on log. A rep fails when it errored or its
// report differs from the first good rep's.
func summarize(w workload, untraced, tracedReps []sample, traced bool, log io.Writer) result {
	all := append(append([]sample{}, untraced...), tracedReps...)
	var ref *sample
	for i := range all {
		if all[i].Err == "" {
			ref = &all[i]
			break
		}
	}
	res := result{Attempted: len(all), Metrics: map[string]metric{}}
	good := func(s sample) bool {
		return ref != nil && s.Err == "" && s.Digest == ref.Digest && s.Virtual == ref.Virtual
	}
	untracedFailed := 0
	for i, s := range all {
		if s.Err != "" {
			fmt.Fprintf(log, "# rep failed: %s\n", s.Err)
		} else if !good(s) {
			fmt.Fprintf(log, "# rep failed: report %s, virtual %gs differ from %s, %gs\n",
				s.Digest, s.Virtual, ref.Digest, ref.Virtual)
		}
		if !good(s) {
			res.Failed++
			if i < len(untraced) {
				untracedFailed++
			}
		}
	}
	res.Correct = res.Failed == 0
	if ref != nil {
		fmt.Fprintf(log, "# %s virtual_s=%.9f digest=%s\n", w.name, ref.Virtual, ref.Digest)
	}
	pick := func(reps []sample, f func(sample) float64) []float64 {
		var vs []float64
		for _, s := range reps {
			if good(s) {
				vs = append(vs, f(s))
			}
		}
		return vs
	}
	fmt.Fprintf(log, "# %d failed of %d attempted\n", res.Failed, res.Attempted)
	okFrac := float64(len(untraced)-untracedFailed) / float64(max(len(untraced), 1))
	var runS float64
	for _, d := range endToEnd {
		v := okFrac
		if d.name != "ok_frac" {
			vs := pick(untraced, func(s sample) float64 { return field(s, d.name) })
			var q1, q3 float64
			q1, v, q3 = quartiles(vs)
			fmt.Fprintf(log, "# %s n=%d q1=%.6g median=%.6g q3=%.6g\n", d.name, len(vs), q1, v, q3)
		}
		if d.name == "run_s" {
			runS = v
		}
		if !traced {
			res.Metrics[d.name] = metric{v, d.unit}
		}
	}
	if ref != nil && runS > 0 {
		fmt.Fprintf(log, "# throughput %.0f %s/s\n", ref.Units/runS, w.unit)
	}
	if !traced {
		return res
	}
	for _, d := range perLayer {
		var v float64
		switch d.name {
		case "trace_overhead_frac":
			if runS > 0 {
				v = (median(pick(tracedReps, func(s sample) float64 { return s.Run })) - runS) / runS
			}
		default:
			v = median(pick(tracedReps, func(s sample) float64 { return s.Layers[d.name] }))
		}
		res.Metrics[d.name] = metric{v, d.unit}
	}
	return res
}

func field(s sample, name string) float64 {
	switch name {
	case "setup_s":
		return s.Setup
	case "run_s":
		return s.Run
	case "cpu_s":
		return s.CPU
	case "peak_rss_mb":
		return s.RSS
	}
	panic("perfbench: no field " + name)
}

func median(vs []float64) float64 {
	_, m, _ := quartiles(vs)
	return m
}

// quartiles are the first quartile, median and third quartile of vs by
// linear interpolation; all zero when vs is empty.
func quartiles(vs []float64) (q1, med, q3 float64) {
	if len(vs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}
