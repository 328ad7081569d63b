package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dfg"
	"repro/internal/service"
	"repro/internal/tempart"
)

func TestLoadGraphDCT(t *testing.T) {
	g, err := loadGraph("dct")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTasks() != 32 {
		t.Errorf("dct graph has %d tasks", g.NumTasks())
	}
}

func TestLoadGraphJSON(t *testing.T) {
	g := dfg.New("file")
	g.MustAddTask(dfg.Task{Name: "a", Resources: 10, Delay: 5})
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := loadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumTasks() != 1 || got.Task(0).Name != "a" {
		t.Errorf("loaded graph wrong: %d tasks", got.NumTasks())
	}
	if _, err := loadGraph(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestRunSmallGraph(t *testing.T) {
	g := dfg.New("g")
	g.MustAddTask(dfg.Task{Name: "a", Resources: 60, Delay: 50, ReadEnv: 1})
	g.MustAddTask(dfg.Task{Name: "b", Resources: 60, Delay: 70, WriteEnv: 1})
	g.MustAddEdge("a", "b", 2)
	data, _ := json.Marshal(g)
	path := filepath.Join(t.TempDir(), "g.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Exercise both partitioners and both strategies end to end.
	for _, part := range []string{"ilp", "list"} {
		for _, strat := range []string{"fdh", "idh"} {
			if err := run(cliOptions{Graph: path, Board: "small", Partitioner: part, Strategy: strat, I: 100, Sequencer: true, Trace: 3, Workers: 2, SpeculateN: 2}); err != nil {
				t.Fatalf("%s/%s: %v", part, strat, err)
			}
		}
	}
	// DOT mode.
	if err := run(cliOptions{Graph: path, Board: "small", Partitioner: "ilp", Strategy: "idh", DOT: true, Workers: 1, SpeculateN: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadArgs(t *testing.T) {
	if err := run(cliOptions{Graph: "dct", Board: "nope-board", Partitioner: "ilp", Strategy: "idh", I: 1}); err == nil {
		t.Error("unknown board accepted")
	}
	if err := run(cliOptions{Graph: "dct", Board: "small", Partitioner: "nope", Strategy: "idh", I: 1}); err == nil {
		t.Error("unknown partitioner accepted")
	}
	if err := run(cliOptions{Graph: "dct", Board: "small", Partitioner: "ilp", Strategy: "nope", I: 1}); err == nil {
		t.Error("unknown strategy accepted")
	}
}

// TestRunJSONOutputMatchesServicePayload pins that `-o json` emits exactly
// the internal/service Result schema, with values matching a service solve
// of the same request — the contract that lets CLI and HTTP clients share
// one parser.
func TestRunJSONOutputMatchesServicePayload(t *testing.T) {
	g := dfg.New("g")
	g.MustAddTask(dfg.Task{Name: "a", Resources: 60, Delay: 50, ReadEnv: 1})
	g.MustAddTask(dfg.Task{Name: "b", Resources: 60, Delay: 70, WriteEnv: 1})
	g.MustAddEdge("a", "b", 2)
	data, _ := json.Marshal(g)
	path := filepath.Join(t.TempDir(), "g.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Capture stdout of the json run.
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run(cliOptions{Graph: path, Board: "small", Partitioner: "ilp",
		Strategy: "idh", I: 1, Output: "json"})
	w.Close()
	os.Stdout = old
	if runErr != nil {
		t.Fatal(runErr)
	}
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}

	var cli service.Result
	if err := json.Unmarshal(out, &cli); err != nil {
		t.Fatalf("-o json is not the service payload: %v\n%s", err, out)
	}

	sr := service.SolveRequest{Graph: data, Board: "small"}
	req, err := sr.Parse()
	if err != nil {
		t.Fatal(err)
	}
	part, err := tempart.Solve(context.Background(), tempart.Input{Graph: req.Graph, Board: req.Board})
	if err != nil {
		t.Fatal(err)
	}
	svc := service.NewResult(req.Graph, req.BoardName, "ilp", part)
	if cli.N != svc.N || cli.LatencyNS != svc.LatencyNS || cli.Board != svc.Board ||
		cli.Engine != svc.Engine || cli.Optimal != svc.Optimal {
		t.Fatalf("CLI and service payloads diverge:\ncli: %+v\nsvc: %+v", cli, svc)
	}
	if len(cli.Partitions) != len(svc.Partitions) {
		t.Fatalf("partition lists diverge: %d vs %d", len(cli.Partitions), len(svc.Partitions))
	}
	for i := range cli.Partitions {
		if cli.Partitions[i].CLBs != svc.Partitions[i].CLBs ||
			cli.Partitions[i].DelayNS != svc.Partitions[i].DelayNS {
			t.Fatalf("partition %d diverges:\ncli: %+v\nsvc: %+v", i, cli.Partitions[i], svc.Partitions[i])
		}
	}
	// Unknown output format is rejected.
	if err := run(cliOptions{Graph: path, Board: "small", Partitioner: "ilp",
		Strategy: "idh", I: 1, Output: "yaml"}); err == nil {
		t.Error("unknown output format accepted")
	}
}
