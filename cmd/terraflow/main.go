// Command terraflow runs the watershed stage of the TerraFlow terrain
// analysis on an emulated active-storage cluster, optionally rendering the
// labeled watersheds as ASCII art.
//
//	terraflow -w 256 -h 256 -basins 6 -asus 8 -placement active -render
package main

import (
	"flag"
	"fmt"
	"os"

	"lmas/internal/cluster"
	"lmas/internal/dsmsort"
	"lmas/internal/terraflow"
)

func main() {
	var (
		w         = flag.Int("w", 128, "grid width")
		h         = flag.Int("h", 128, "grid height")
		basins    = flag.Int("basins", 4, "synthetic basin count")
		asus      = flag.Int("asus", 8, "ASU count")
		placement = flag.String("placement", "active", "active|conventional")
		seed      = flag.Int64("seed", 42, "terrain seed")
		render    = flag.Bool("render", false, "print ASCII watershed map")
		flow      = flag.Bool("flow", false, "also compute upstream-area flow accumulation")
	)
	flag.Parse()

	params := cluster.DefaultParams()
	params.Hosts, params.ASUs = 1, *asus
	params.RecordSize = terraflow.CellRecordSize
	opt := terraflow.DefaultOptions()
	opt.Flow = *flow
	switch *placement {
	case "active":
		opt.Placement = dsmsort.Active
	case "conventional":
		opt.Placement = dsmsort.Conventional
	default:
		fail(fmt.Errorf("unknown placement %q", *placement))
	}
	if *w < 1 || *h < 1 {
		fail(fmt.Errorf("grid %dx%d: width and height must be at least 1", *w, *h))
	}
	if *basins < 1 {
		fail(fmt.Errorf("-basins %d: need at least one basin", *basins))
	}
	if err := params.Validate(); err != nil {
		fail(err)
	}
	cl := cluster.New(params)

	g, centers := terraflow.SyntheticBasins(*w, *h, *basins, 10, *seed)

	res, err := terraflow.Run(cl, g, opt)
	if err != nil {
		fail(err)
	}
	fmt.Printf("terrain %dx%d with %d basins -> %d watersheds (%s, %d ASUs)\n",
		*w, *h, len(centers), res.Watersheds, *placement, *asus)
	fmt.Printf("  step 1 restructure: %8.4fs\n", res.Restructure.Seconds())
	fmt.Printf("  step 2 sort:        %8.4fs\n", res.Sort.Seconds())
	fmt.Printf("  step 3 watershed:   %8.4fs\n", res.Watershed.Seconds())
	if *flow {
		fmt.Printf("  flow accumulation:  %8.4fs\n", res.FlowAccum.Seconds())
	}
	fmt.Printf("  total:              %8.4fs\n", res.Total().Seconds())
	fmt.Println("  labeling validated against in-memory reference")
	if *flow {
		var maxArea uint32
		var at int
		for i, a := range res.Areas {
			if a > maxArea {
				maxArea, at = a, i
			}
		}
		fmt.Printf("  largest upstream area: %d cells at (%d,%d)\n",
			maxArea, at%g.W, at/g.W)
	}

	if *render {
		renderMap(g, res.Colors)
	}
}

// fail reports a rejected configuration or a failed run on one line and
// exits non-zero.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "terraflow:", err)
	os.Exit(1)
}

// renderMap prints the watershed labeling, one glyph per cell block.
func renderMap(g *terraflow.Grid, colors []uint32) {
	const glyphs = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	idx := map[uint32]int{}
	stepX := (g.W + 79) / 80
	stepY := stepX * 2 // terminal cells are ~2x taller than wide
	if stepY < 1 {
		stepY = 1
	}
	for y := 0; y < g.H; y += stepY {
		line := make([]byte, 0, g.W/stepX+1)
		for x := 0; x < g.W; x += stepX {
			c := colors[y*g.W+x]
			i, ok := idx[c]
			if !ok {
				i = len(idx)
				idx[c] = i
			}
			line = append(line, glyphs[i%len(glyphs)])
		}
		fmt.Println(string(line))
	}
}
