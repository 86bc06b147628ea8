// Command netplan analyzes the communication network of a node placement:
// connectivity, relay requirements, collection cost and failure tolerance.
// It reads node positions from a CSV (x,y per row, header optional) or
// generates an FRA placement, and prints the network report that
// `evalall -ext` computes for the standard experiments.
//
// Usage:
//
//	netplan -fra 100                 # analyze an FRA placement
//	netplan -pos nodes.csv -rc 10    # analyze positions from a file
package main

import (
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/obs/obscli"
	"repro/internal/sweep"
)

func main() {
	var (
		posFile = flag.String("pos", "", "CSV of node positions (x,y rows)")
		fraK    = flag.Int("fra", 0, "generate an FRA placement with this many nodes instead")
		rc      = flag.Float64("rc", 10, "communication radius")
		gridN   = flag.Int("grid", 50, "FRA local-error lattice divisions")
	)
	obscli.Main("netplan", func() error {
		if !(*rc > 0) || math.IsInf(*rc, 1) {
			return fmt.Errorf("bad radius rc=%v: want a positive finite number", *rc)
		}
		if err := checkFlags(*fraK, *gridN); err != nil {
			return err
		}
		if *posFile == "" && *fraK == 0 {
			return errors.New("need -pos FILE or -fra K")
		}
		return nil
	}, func(reg *obs.Registry) error {
		var nodes []geom.Vec2
		switch {
		case *posFile != "":
			f, err := os.Open(*posFile)
			if err != nil {
				return err
			}
			defer f.Close()
			nodes, err = readPositions(f)
			if err != nil {
				return err
			}
		case *fraK > 0:
			ref := field.NewForest(field.DefaultForestConfig()).Reference()
			p, err := core.FRA(ref, core.FRAOptions{
				K: *fraK, Rc: *rc, GridN: *gridN, Metrics: reg,
			})
			if err != nil {
				return err
			}
			nodes = p.Nodes
			fmt.Printf("FRA placement: %d refined + %d relays\n", p.Refined, p.Relays)
		}
		if len(nodes) == 0 {
			return errors.New("no nodes")
		}

		g := graph.NewUnitDisk(nodes, *rc)
		fmt.Printf("nodes: %d, edges: %d, mean degree: %.2f\n",
			g.N(), g.NumEdges(), 2*float64(g.NumEdges())/float64(g.N()))
		fmt.Printf("connected: %v (%d components)\n", g.Connected(), g.NumComponents())

		if !g.Connected() {
			relays := graph.RelayPositions(nodes, *rc)
			fmt.Printf("relays needed to connect: %d\n", len(relays))
			for _, r := range relays {
				fmt.Printf("  relay at %v\n", r)
			}
			return nil
		}

		sink, stats, err := collect.BestSink(g)
		if err != nil {
			return err
		}
		fmt.Printf("collection (best sink = node %d): %d tx/epoch, energy %.0f, max depth %d, bottleneck %d tx\n",
			sink, stats.TotalTx, stats.Energy, stats.MaxDepth, stats.Bottleneck)

		rob := g.AnalyzeRobustness()
		fmt.Printf("robustness: biconnected=%v, %d articulation points, %d bridges\n",
			rob.Biconnected, len(rob.ArticulationPoints), len(rob.Bridges))
		for _, v := range rob.ArticulationPoints {
			fmt.Printf("  single point of failure: node %d at %v\n", v, g.Pos(v))
		}
		return nil
	})
}

// checkFlags refuses the FRA flags the run cannot honor before anything
// is allocated. Each error names its flag.
func checkFlags(fraK, gridN int) error {
	switch {
	case fraK < 0:
		return fmt.Errorf("bad -fra %d: must be at least 0", fraK)
	case gridN < 1:
		return fmt.Errorf("bad -grid %d: must be at least 1", gridN)
	case fraK > 0:
		if err := sweep.CheckWork(fraK, gridN, 0, 0); err != nil {
			return fmt.Errorf("bad -fra or -grid: %w", err)
		}
	}
	return nil
}

// readPositions parses x,y rows; a non-numeric first row is treated as a
// header and skipped.
func readPositions(r io.Reader) ([]geom.Vec2, error) {
	rows, err := csv.NewReader(r).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("read positions: %w", err)
	}
	var out []geom.Vec2
	for i, row := range rows {
		if len(row) < 2 {
			return nil, fmt.Errorf("row %d: want x,y, got %v", i, row)
		}
		x, errX := strconv.ParseFloat(row[0], 64)
		y, errY := strconv.ParseFloat(row[1], 64)
		if errX != nil || errY != nil {
			if i == 0 {
				continue // header row
			}
			return nil, fmt.Errorf("row %d: bad coordinates %v", i, row)
		}
		out = append(out, geom.V2(x, y))
	}
	return out, nil
}
