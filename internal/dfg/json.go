package dfg

import (
	"encoding/json"
	"fmt"
)

// jsonGraph is the wire schema used by cmd/sparcs and cmd/tgen.
type jsonGraph struct {
	Name  string     `json:"name"`
	Tasks []jsonTask `json:"tasks"`
	Edges []jsonEdge `json:"edges"`
}

type jsonTask struct {
	Name      string         `json:"name"`
	Type      string         `json:"type,omitempty"`
	Resources int            `json:"resources"`
	Delay     float64        `json:"delay"`
	ReadEnv   int            `json:"read_env,omitempty"`
	WriteEnv  int            `json:"write_env,omitempty"`
	Extra     map[string]int `json:"extra,omitempty"`
}

type jsonEdge struct {
	From string `json:"from"`
	To   string `json:"to"`
	Data int    `json:"data"`
}

// MarshalJSON encodes the graph in the stable wire schema.
func (g *Graph) MarshalJSON() ([]byte, error) {
	jg := jsonGraph{Name: g.Name}
	for _, t := range g.tasks {
		jg.Tasks = append(jg.Tasks, jsonTask{
			Name: t.Name, Type: t.Type, Resources: t.Resources,
			Delay: t.Delay, ReadEnv: t.ReadEnv, WriteEnv: t.WriteEnv,
			Extra: t.Extra,
		})
	}
	for _, e := range g.edges {
		jg.Edges = append(jg.Edges, jsonEdge{
			From: g.tasks[e.From].Name, To: g.tasks[e.To].Name, Data: e.Data,
		})
	}
	return json.Marshal(jg)
}

// Decode parses a graph from the wire schema in one json.Unmarshal pass
// and validates it. The input is untrusted (it arrives from files and
// from the internal/service HTTP API), so the decoder rejects — with an
// error naming the offending element — duplicate task names, edges whose
// endpoints name unknown tasks, self and duplicate edges, negative costs,
// and dependency cycles. A successfully decoded graph always passes
// Validate.
func Decode(data []byte) (*Graph, error) {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return nil, err
	}
	// Every sparcsd request decodes its graph, so the graph is sized from
	// the wire arrays and one allocation holds every task.
	n := len(jg.Tasks)
	g := &Graph{
		Name:  jg.Name,
		index: make(map[string]int, n),
		tasks: make([]*Task, 0, n),
		edges: make([]Edge, 0, len(jg.Edges)),
		succ:  make([][]int, 0, n),
		pred:  make([][]int, 0, n),
	}
	tasks := make([]Task, n)
	for i, jt := range jg.Tasks {
		tasks[i] = Task{
			Name: jt.Name, Type: jt.Type, Resources: jt.Resources,
			Delay: jt.Delay, ReadEnv: jt.ReadEnv, WriteEnv: jt.WriteEnv,
			Extra: jt.Extra,
		}
		if _, err := g.addTask(&tasks[i]); err != nil {
			return nil, fmt.Errorf("dfg: decode: tasks[%d]: %w", i, err)
		}
	}
	for i, je := range jg.Edges {
		if err := g.AddEdge(je.From, je.To, je.Data); err != nil {
			return nil, fmt.Errorf("dfg: decode: edges[%d]: %w", i, err)
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("dfg: decode: %w", err)
	}
	return g, nil
}

// UnmarshalJSON decodes a graph with Decode, replacing the receiver's
// contents.
func (g *Graph) UnmarshalJSON(data []byte) error {
	ng, err := Decode(data)
	if err != nil {
		return err
	}
	*g = *ng
	return nil
}
