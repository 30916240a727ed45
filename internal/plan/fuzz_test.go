package plan_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"gdpn/internal/plan"
)

// FuzzTopologyParse feeds Parse arbitrary bytes, a topology file being
// input that crosses a trust boundary. Parse must never panic or try an
// unbounded allocation, and a topology it accepts must validate again
// unchanged (Validate is idempotent once the defaults are filled) and
// round-trip through json.Marshal and Parse to the same encoding. The
// seed corpus is the example topologies plus testdata/fuzz/FuzzTopologyParse,
// which holds topologies asking for out-of-range allocation sizes.
func FuzzTopologyParse(f *testing.F) {
	examples, err := filepath.Glob("../../examples/topologies/*.json")
	if err != nil || len(examples) == 0 {
		f.Fatalf("no example topologies: %v", err)
	}
	for _, path := range examples {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(mixedTopo))
	f.Fuzz(func(t *testing.T, data []byte) {
		topo, err := plan.Parse(data)
		if err != nil {
			return
		}
		again := *topo
		again.Tenants = slices.Clone(topo.Tenants)
		if err := again.Validate(); err != nil {
			t.Fatalf("a parsed topology fails to validate again: %v", err)
		}
		if !reflect.DeepEqual(&again, topo) {
			t.Fatalf("validating a parsed topology again changed it:\n%+v\nto\n%+v", topo, &again)
		}
		enc, err := json.Marshal(topo)
		if err != nil {
			t.Fatalf("Marshal: %v", err)
		}
		back, err := plan.Parse(enc)
		if err != nil {
			t.Fatalf("Parse of the marshaled topology %s: %v", enc, err)
		}
		enc2, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("Marshal: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip changed the topology:\n%s\nto\n%s", enc, enc2)
		}
	})
}
