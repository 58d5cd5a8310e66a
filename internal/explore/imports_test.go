package explore

import (
	"go/parser"
	"go/token"
	"strconv"
	"testing"
)

// TestEngineImportsNoProtocol pins the structural property the protocol
// description exists for: the engine (explore.go) and the modelled system
// (system.go) know the cores only as proto.Machine. A protocol package
// imported by either is a fork waiting to be written; protocol knowledge
// belongs in a description file (canely.go, swim.go) or in scenario.go.
func TestEngineImportsNoProtocol(t *testing.T) {
	banned := map[string]bool{
		"canely/internal/core":            true,
		"canely/internal/core/fd":         true,
		"canely/internal/core/membership": true,
		"canely/internal/gossip":          true,
	}
	for _, file := range []string{"system.go", "explore.go"} {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if banned[path] {
				t.Errorf("%s imports %s: protocol knowledge belongs in a protocol description", file, path)
			}
		}
	}
}
