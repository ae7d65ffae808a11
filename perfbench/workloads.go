package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"lmas/internal/cluster"
	"lmas/internal/container"
	"lmas/internal/critpath"
	"lmas/internal/dsmsort"
	"lmas/internal/experiments"
	"lmas/internal/recorder"
	"lmas/internal/records"
	"lmas/internal/route"
	"lmas/internal/sim"
	"lmas/internal/telemetry"
	"lmas/internal/terraflow"
	"lmas/internal/trace"
)

// workload is one batch job of the benchmark. run builds the inputs from
// seed (timed as set-up), makes the measured calls between m.beginRun and
// m.endRun, and then checks the outputs. size counts records, jobs or grid
// side cells; tiny is the size the benchmark's own test uses.
type workload struct {
	name string
	unit string // what sample.Units counts
	size int
	tiny int
	run  func(m *meter, size int, seed int64) error
}

var workloads = []workload{
	{"sort-1m", "records", 1 << 20, 1 << 12, func(m *meter, n int, seed int64) error {
		return runSort(m, n, seed, false)
	}},
	{"churn-100k", "jobs", 100000, 400, runChurn},
	{"terraflow-192", "cells", 192, 24, runTerraflow},
	{"sort-observed", "records", 1 << 18, 1 << 12, func(m *meter, n int, seed int64) error {
		return runSort(m, n, seed, true)
	}},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// serialParams is the default cluster pinned to the serial engine. main
// also clears the LMAS_SIM_* variables, which would otherwise still set the
// worker and group counts.
func serialParams(hosts, asus int) cluster.Params {
	p := cluster.DefaultParams()
	p.Hosts, p.ASUs = hosts, asus
	p.Engine = "serial"
	return p
}

// sortCluster is the DSM-Sort cluster: 2 hosts / 8 ASUs, c=8.
func sortCluster() *cluster.Cluster {
	p := serialParams(2, 8)
	p.C = 8
	return cluster.New(p)
}

// runSort is DSM-Sort of n uniform records on 2 hosts / 8 ASUs (c=8, α=16,
// β=1024, γ2=16, 64-record packets, active placement, static routing) with
// the telemetry registry attached, as experiments.RunSortReport sets it up.
// observed adds a trace sink, the critpath profiler, a run-store recorder
// and 10 ms periodic gauges, and exports the trace as JSON.
func runSort(m *meter, n int, seed int64, observed bool) error {
	const packet, alpha = 64, 16
	name := "sort"
	if observed {
		name = "sort-observed"
	}
	var cl *cluster.Cluster
	m.span("cluster.new", func() { cl = sortCluster() })
	cl.AttachTelemetry(telemetry.NewRegistry(), 0)
	workload := map[string]any{"program": "dsmsort", "n": n, "alpha": alpha, "beta": 1024,
		"gamma2": 16, "packet": packet, "placement": "active", "policy": "static", "dist": "uniform"}
	var (
		sink      *trace.Sink
		store     *recorder.Store
		rec       recorder.Recorder
		tracePath = filepath.Join(m.tmp, "trace.json")
		err       error
	)
	if observed {
		sink = trace.New()
		cl.AttachTrace(sink)
		cl.AttachProfiler(critpath.New())
		if store, err = recorder.OpenStore(filepath.Join(m.tmp, "runs")); err != nil {
			return err
		}
		rec = store.NewRun()
		cfg := cl.Config()
		rec.Begin(&recorder.Header{Experiment: "perfbench", Name: name,
			ConfigHash: recorder.ConfigHash(cfg, workload, seed), Seed: seed, Config: cfg, Workload: workload})
		cl.AttachRecorder(rec, 100*sim.Millisecond)
		cl.AttachPeriodicGauges(10 * sim.Millisecond)
	}
	var in *dsmsort.Input
	m.span("dsmsort.make_input", func() { in, err = dsmsort.MakeInputNamed(cl, n, "uniform", seed, packet) })
	if err != nil {
		return err
	}
	defer in.Free()
	pol, err := route.ByName("static", alpha, seed)
	if err != nil {
		return err
	}
	cfg := dsmsort.Config{Alpha: alpha, Beta: 1024, Gamma2: 16, PacketRecords: packet,
		Placement: dsmsort.Active, SortPolicy: pol, Seed: seed}

	m.beginRun()
	var (
		rs  *dsmsort.RunStore
		p1  *dsmsort.Pass1Result
		out *dsmsort.OutputStore
		mr  *dsmsort.MergeResult
		rep *telemetry.RunReport
	)
	m.span("dsmsort.run_formation", func() { rs, p1, err = dsmsort.RunFormation(cl, cfg, in) })
	if err != nil {
		return err
	}
	m.span("dsmsort.merge_pass", func() { out, mr, err = dsmsort.MergePass(cl, cfg, rs) })
	if err != nil {
		return err
	}
	defer out.Free()
	rs.Free()
	m.span("dsmsort.validate", func() { err = out.Validate(in, alpha) })
	if err != nil {
		return err
	}
	cl.FinishSampling()
	elapsed := p1.Elapsed + mr.Elapsed
	m.span("cluster.build_report", func() { rep = cl.BuildReport(name, seed, elapsed) })
	rep.Workload = workload
	if observed {
		rec.Finish(rep)
		if err := store.Err(); err != nil {
			return err
		}
		m.span("trace.write_json", func() { err = writeTrace(sink, tracePath) })
		if err != nil {
			return err
		}
	}
	m.endRun()

	if err := checkSorted(out, n, in.Checksum); err != nil {
		return err
	}
	b, err := telemetry.Marshal(rep)
	if err != nil {
		return err
	}
	if observed {
		tb, err := os.ReadFile(tracePath)
		if err != nil {
			return err
		}
		if !json.Valid(tb) {
			return fmt.Errorf("trace export is not valid JSON")
		}
		b = append(b, tb...)
	}
	m.s.Digest = digest(b)
	m.s.Virtual = elapsed.Seconds()
	m.s.Units = float64(n)
	m.counters(rep.Counters)
	m.layer("dsmsort.pass1.runs", float64(p1.Runs))
	m.layer("dsmsort.pass1.net_bytes", float64(p1.NetBytes))
	m.layer("dsmsort.merge.offload_ops", mr.OffloadedOps)
	return nil
}

func writeTrace(sink *trace.Sink, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = sink.WriteJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// checkSorted is the benchmark's own check of a DSM-Sort output: read in
// (bucket, run) order it is one nondecreasing sequence of n records whose
// permutation checksum matches the input's.
func checkSorted(out *dsmsort.OutputStore, n int, want records.Checksum) error {
	var pks []container.Packet
	for _, st := range out.Streams {
		st.ForEach(func(pk container.Packet) bool {
			pks = append(pks, pk)
			return true
		})
	}
	sort.Slice(pks, func(i, j int) bool {
		if pks[i].Bucket != pks[j].Bucket {
			return pks[i].Bucket < pks[j].Bucket
		}
		return pks[i].Run < pks[j].Run
	})
	var (
		sum     records.Checksum
		last    records.Key
		started bool
	)
	for _, pk := range pks {
		for i := 0; i < pk.Len(); i++ {
			k := pk.Buf.Key(i)
			if started && k < last {
				return fmt.Errorf("output not sorted in bucket %d run %d", pk.Bucket, pk.Run)
			}
			last, started = k, true
		}
		sum.Add(pk.Buf)
	}
	if sum.Count != n {
		return fmt.Errorf("output has %d records, want %d", sum.Count, n)
	}
	if !sum.Equal(want) {
		return fmt.Errorf("output checksum %v, input %v", sum, want)
	}
	return nil
}

// runChurn is experiments.RunOpenLoop with default options at the given job
// count: far timers, recycled procs, no record payloads. RunOpenLoop builds
// its own cluster, so set-up builds one of the same shape on its own.
func runChurn(m *meter, jobs int, seed int64) error {
	opt := experiments.DefaultOpenLoopOptions()
	opt.Jobs, opt.Seed = jobs, seed
	opt.Base = serialParams(opt.Hosts, opt.ASUs)
	m.span("cluster.new", func() { cluster.New(opt.Base) })

	m.beginRun()
	var (
		res *experiments.OpenLoopResult
		err error
	)
	m.span("experiments.run_open_loop", func() { res, err = experiments.RunOpenLoop(opt) })
	if err != nil {
		return err
	}
	m.endRun()

	if res.Completed != jobs {
		return fmt.Errorf("completed %d of %d jobs", res.Completed, jobs)
	}
	b, err := telemetry.Marshal(res.Report)
	if err != nil {
		return err
	}
	m.s.Digest = digest(b)
	m.s.Virtual = res.Elapsed.Seconds()
	m.s.Units = float64(jobs)
	m.counters(res.Report.Counters)
	return nil
}

// runTerraflow is the TerraFlow watershed and flow-accumulation run on a
// side×side basinGrid, 1 host / 8 ASUs, active placement, checked against
// the in-memory reference.
func runTerraflow(m *meter, side int, seed int64) error {
	var cl *cluster.Cluster
	m.span("cluster.new", func() {
		p := serialParams(1, 8)
		p.RecordSize = terraflow.CellRecordSize
		cl = cluster.New(p)
	})
	var g *terraflow.Grid
	m.span("terraflow.from_basins", func() { g = basinGrid(side, seed) })
	opt := terraflow.DefaultOptions()
	opt.Flow = true

	m.beginRun()
	var (
		res *terraflow.Result
		err error
	)
	m.span("terraflow.run", func() { res, err = terraflow.Run(cl, g, opt) })
	if err != nil {
		return err
	}
	m.endRun()

	var colors, areas []uint32
	m.span("terraflow.reference", func() {
		colors = terraflow.ReferenceWatersheds(g)
		areas = terraflow.ReferenceAccumulation(g)
	})
	if err := sameCells("label", res.Colors, colors); err != nil {
		return err
	}
	if err := sameCells("area", res.Areas, areas); err != nil {
		return err
	}
	st := cl.Sim.SchedStats()
	b, err := json.Marshal(struct {
		Result *terraflow.Result
		Sched  sim.SchedStats
	}{res, st})
	if err != nil {
		return err
	}
	m.s.Digest = digest(b)
	m.s.Virtual = res.Total().Seconds()
	m.s.Units = float64(g.Cells())
	m.layer("sim.scheduler.wheel_hits", float64(st.WheelHits))
	m.layer("sim.scheduler.heap_spills", float64(st.HeapSpills))
	m.layer("sim.scheduler.proc_reuses", float64(st.ProcReuses))
	return nil
}

// basinGrid is a side×side terrain of six basins with slope 10, one per
// cell of a 3×2 lattice; the seed moves each centre by up to side/24 and
// draws its base below 100, so no basin swallows another. SyntheticBasins
// places centres anywhere: basins then merge, and the priority queue's
// frontier, which sets its host cost, varied twofold from seed to seed.
func basinGrid(side int, seed int64) *terraflow.Grid {
	rng := rand.New(rand.NewSource(seed))
	j := side / 24
	bs := make([]terraflow.Basin, 6)
	for i := range bs {
		bs[i] = terraflow.Basin{
			X:    (2*(i%3)+1)*side/6 + rng.Intn(2*j+1) - j,
			Y:    (2*(i/3)+1)*side/4 + rng.Intn(2*j+1) - j,
			Base: uint32(rng.Intn(100)),
		}
	}
	return terraflow.FromBasins(side, side, bs, 10)
}

func sameCells(what string, got, want []uint32) error {
	if len(got) != len(want) {
		return fmt.Errorf("terraflow: %d %ss, reference has %d", len(got), what, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("terraflow: cell %d %s %d, reference %d", i, what, got[i], want[i])
		}
	}
	return nil
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}
