package dfg

import (
	"encoding/json"
	"testing"
)

// FuzzUnmarshalJSON fuzzes the wire schema decoder with arbitrary bytes:
// whatever is accepted must validate, survive a marshal/unmarshal round
// trip, and keep a stable structure hash across the round trip.
func FuzzUnmarshalJSON(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"name":"g","tasks":[{"name":"a","resources":10,"delay":5}]}`,
		`{"name":"g","tasks":[{"name":"a","resources":10,"delay":5},
		  {"name":"b","resources":3,"delay":7,"extra":{"bram":2}}],
		  "edges":[{"from":"a","to":"b","data":4}]}`,
		// Rejected inputs: duplicate task, unknown edge endpoint, self
		// edge, duplicate edge, cycle, negative cost.
		`{"tasks":[{"name":"a"},{"name":"a"}]}`,
		`{"tasks":[{"name":"a"}],"edges":[{"from":"a","to":"zz","data":1}]}`,
		`{"tasks":[{"name":"a"}],"edges":[{"from":"a","to":"a","data":1}]}`,
		`{"tasks":[{"name":"a"},{"name":"b"}],
		  "edges":[{"from":"a","to":"b","data":1},{"from":"a","to":"b","data":2}]}`,
		`{"tasks":[{"name":"a"},{"name":"b"}],
		  "edges":[{"from":"a","to":"b","data":1},{"from":"b","to":"a","data":1}]}`,
		`{"tasks":[{"name":"a","resources":-1}]}`,
		`{"tasks":[{"name":"a","delay":-2}]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var g Graph
		if err := g.UnmarshalJSON(data); err != nil {
			return // rejected input: the only contract is "no panic"
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("decoder accepted a graph that fails Validate: %v\ninput: %s", err, data)
		}
		out, err := json.Marshal(&g)
		if err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
		var g2 Graph
		if err := g2.UnmarshalJSON(out); err != nil {
			t.Fatalf("round trip rejected: %v\nwire: %s", err, out)
		}
		if g2.NumTasks() != g.NumTasks() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed shape: %d/%d tasks, %d/%d edges",
				g.NumTasks(), g2.NumTasks(), g.NumEdges(), g2.NumEdges())
		}
		if hashOf(&g) != hashOf(&g2) {
			t.Fatalf("round trip changed structure hash\nwire: %s", out)
		}
	})
}

// TestUnmarshalRejectsInvalid pins the decoder's validation errors with
// readable messages (the fuzz seeds above are the adversarial corpus).
func TestUnmarshalRejectsInvalid(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"duplicate-task", `{"tasks":[{"name":"a"},{"name":"a"}]}`, "duplicate task name"},
		{"unknown-edge-from", `{"tasks":[{"name":"a"}],"edges":[{"from":"zz","to":"a","data":1}]}`, "unknown task"},
		{"unknown-edge-to", `{"tasks":[{"name":"a"}],"edges":[{"from":"a","to":"zz","data":1}]}`, "unknown task"},
		{"empty-name", `{"tasks":[{"name":""}]}`, "non-empty"},
		{"self-edge", `{"tasks":[{"name":"a"}],"edges":[{"from":"a","to":"a","data":1}]}`, "self edge"},
		{"negative-data", `{"tasks":[{"name":"a"},{"name":"b"}],"edges":[{"from":"a","to":"b","data":-1}]}`, "negative data"},
		{"cycle", `{"tasks":[{"name":"a"},{"name":"b"}],"edges":[{"from":"a","to":"b","data":1},{"from":"b","to":"a","data":1}]}`, "cycle"},
		{"negative-resources", `{"tasks":[{"name":"a","resources":-5}]}`, "negative resources"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var g Graph
			err := g.UnmarshalJSON([]byte(tc.in))
			if err == nil {
				t.Fatalf("decoder accepted invalid input %s", tc.in)
			}
			if !contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
