package terraflow

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"lmas/internal/dsmsort"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenRun is the virtual-time fingerprint of one full TerraFlow run: the
// phase durations in nanoseconds, the watershed count, and digests of the
// per-cell labels and upstream areas.
type goldenRun struct {
	RestructureNS int64  `json:"restructure_ns"`
	SortNS        int64  `json:"sort_ns"`
	WatershedNS   int64  `json:"watershed_ns"`
	FlowAccumNS   int64  `json:"flow_accum_ns"`
	Watersheds    int    `json:"watersheds"`
	ColorsSHA256  string `json:"colors_sha256"`
	AreasSHA256   string `json:"areas_sha256"`
}

func cellsDigest(v []uint32) string {
	b := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[4*i:], x)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestVirtualTimeGolden pins TerraFlow's virtual timings and outputs on a
// fixed 64×64 five-basin grid with flow accumulation, under both
// placements, and once more with a 16-item priority-queue buffer so the
// queue's spilled-run path is exercised end to end. Host-side rewrites of
// the sort, the priority queue or the sim kernel must leave every figure
// unchanged. Refresh (only for an intended virtual-time change) with
// `go test ./internal/terraflow -run TestVirtualTimeGolden -update`.
func TestVirtualTimeGolden(t *testing.T) {
	g := FromBasins(64, 64, []Basin{
		{X: 10, Y: 12, Base: 0},
		{X: 50, Y: 9, Base: 30},
		{X: 32, Y: 33, Base: 12},
		{X: 8, Y: 54, Base: 55},
		{X: 53, Y: 52, Base: 4},
	}, 10)
	cases := []struct {
		name   string
		adjust func(*Options)
	}{
		{"active", func(*Options) {}},
		{"conventional", func(o *Options) {
			o.Placement = dsmsort.Conventional
			o.XSort.MemRecords = 1024
		}},
		{"active_pq16", func(o *Options) { o.PQMemItems = 16 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := DefaultOptions()
			opt.Sort = dsmsort.Config{Alpha: 4, Beta: 64, Gamma2: 4, PacketRecords: 32, Placement: dsmsort.Active, Seed: 1}
			opt.PacketRecords = 32
			opt.Flow = true
			tc.adjust(&opt)
			res, err := Run(testCluster(1, 4), g, opt)
			if err != nil {
				t.Fatal(err)
			}
			got := goldenRun{
				RestructureNS: int64(res.Restructure),
				SortNS:        int64(res.Sort),
				WatershedNS:   int64(res.Watershed),
				FlowAccumNS:   int64(res.FlowAccum),
				Watersheds:    res.Watersheds,
				ColorsSHA256:  cellsDigest(res.Colors),
				AreasSHA256:   cellsDigest(res.Areas),
			}
			out, err := json.MarshalIndent(got, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, '\n')
			path := filepath.Join("testdata", "golden_"+tc.name+".json")
			if *updateGolden {
				if err := os.WriteFile(path, out, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(out) != string(want) {
				t.Errorf("run drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, out, want)
			}
		})
	}
}
