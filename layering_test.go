package quartz

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// layers is the import layering of the simulator core, lowest first:
// a package may import packages of lower rank only, never a higher one,
// directly or through any other internal package. traffic and
// experiments share a tier (experiments drives the traffic harnesses,
// never the reverse), so they get consecutive ranks.
var layers = map[string]int{
	"sim":         0,
	"netsim":      1,
	"traffic":     2,
	"experiments": 3,
	"scenario":    4,
	"service":     5,
	"cluster":     6,
}

// simAllowed is the complete set of internal packages the event engine
// may import: metrics, for the heartbeat's instruments. Execution
// tracing (internal/trace) records from the layers above it.
var simAllowed = map[string]bool{"metrics": true}

// internalImports parses every non-test Go file under internal/ (imports
// only) and returns each package's direct imports of other internal
// packages, both keyed by their path below internal/.
func internalImports(t *testing.T) map[string][]string {
	t.Helper()
	const prefix = "github.com/quartz-dcn/quartz/internal/"
	fset := token.NewFileSet()
	seen := map[string]map[string]bool{}
	err := filepath.WalkDir("internal", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Dir(strings.TrimPrefix(path, "internal"+string(filepath.Separator))))
		if seen[pkg] == nil {
			seen[pkg] = map[string]bool{}
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if dep, ok := strings.CutPrefix(p, prefix); ok {
				seen[pkg][dep] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]string, len(seen))
	for pkg, deps := range seen {
		for dep := range deps {
			out[pkg] = append(out[pkg], dep)
		}
		sort.Strings(out[pkg])
	}
	return out
}

// TestImportLayering pins sim ← netsim ← traffic/experiments ←
// scenario ← service ← cluster: no layered package reaches a package of
// equal or higher rank through its imports, and sim imports nothing
// internal beyond simAllowed.
func TestImportLayering(t *testing.T) {
	graph := internalImports(t)
	for pkg := range layers {
		if graph[pkg] == nil {
			t.Fatalf("layered package internal/%s not found (or imports nothing internal)", pkg)
		}
	}
	for _, dep := range graph["sim"] {
		if !simAllowed[dep] {
			t.Errorf("internal/sim imports internal/%s; the engine may import only %v", dep, keys(simAllowed))
		}
	}
	for pkg, rank := range layers {
		// Breadth-first over every internal package pkg reaches,
		// remembering one path to each for the error message.
		via := map[string]string{pkg: ""}
		queue := []string{pkg}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, dep := range graph[cur] {
				if _, ok := via[dep]; ok {
					continue
				}
				via[dep] = cur
				queue = append(queue, dep)
				if r, layered := layers[dep]; layered && r >= rank {
					t.Errorf("back-edge: internal/%s (rank %d) reaches internal/%s (rank %d) via %s",
						pkg, rank, dep, r, pathTo(via, dep))
				}
			}
		}
	}
}

// pathTo renders the import chain BFS recorded from the root to dep.
func pathTo(via map[string]string, dep string) string {
	chain := []string{dep}
	for p := via[dep]; p != ""; p = via[p] {
		chain = append([]string{p}, chain...)
	}
	return strings.Join(chain, " → ")
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
