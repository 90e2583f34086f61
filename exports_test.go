package kvdirect

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptExports are the exported funcs and methods that no non-test code
// calls by name, each kept for the reason given.
var keptExports = map[string]string{
	// The root package's library API, for programs outside this module.
	"DeleteVerOp":        "library API: builds a versioned delete, the counterpart of PutVerOp",
	"NewFaultInjector":   "library API: the one way to build the Config.Faults injector",
	"Replay":             "library API: replays an op-log recorded by OpLog",
	"RegisterUpdateFunc": "library API: installs a user λ (active messages, §3.2)",
	"RegisterFilterFunc": "library API: installs a user filter for reduce/filter scans",
	"SubmitDelete":       "library API: the pipelined DELETE beside SubmitGet/SubmitPut",
	// Oracles that tests compare the store against.
	"Fsck":            "oracle: the hash index's full structural check of a store",
	"Verify":          "oracle: Fsck's first violation as an error",
	"HotKeyFraction":  "oracle: the skew a workload generator promises, checked against its draws",
	"UnpackCacheMeta": "oracle: decodes the ECC-borrowed cache metadata PackCacheMeta writes",
	"DecodeBatch":     "oracle: decodes the slab sync DMA EncodeBatch writes",
	// State hooks that tests read to see what a component holds.
	"DisableAll":     "state hook: turns every fault point off mid-run",
	"Injected":       "state hook: how often a fault point fired",
	"FirstSeq":       "state hook: the replication log's oldest retained entry",
	"LastSeq":        "state hook: the replication log's tail",
	"Resident":       "state hook: whether the NIC DRAM cache holds an address",
	"InFlight":       "state hook: ops the out-of-order engine holds",
	"FreeBytes":      "state hook: the slab allocator's free space, for its conservation checks",
	"Pending":        "state hook: ops a kvnet Batcher has queued but not sent",
	"RegistrySource": "state hook: scrapes a client's registry beside the servers'",
	// Client and admin API.
	"Counter": "client API: memcache INCR/DECR through the gateway client",
	"Names":   "admin API: the gateway's live tenants",
	"Adopt":   "admin API: a successor coordinator takes over live groups",
	// Checks of the paper's numbers.
	"ConcurrencyToSaturate": "paper check: Fig. 3's PCIe concurrency (EXPERIMENTS.md)",
	"BatchGain":             "paper check: Fig. 15's ×4 batching gain",
	// Called through an interface.
	"MarshalJSON": "json.Marshaler: encoding/json calls it for every Claim",
}

// TestEveryExportHasACaller fails on an exported func or method whose
// name occurs once in the module's non-test code (testdata excluded):
// at its own declaration. Such code has only its tests for callers; it
// goes, or joins keptExports with a reason.
func TestEveryExportHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	uses := map[string]int{}
	decls := map[string]string{} // name -> "file:line"
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || (path != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.IsExported() {
				decls[fn.Name.Name] = fset.Position(fn.Pos()).String()
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var orphans []string
	for name, pos := range decls {
		_, kept := keptExports[name]
		switch {
		case uses[name] == 1 && !kept:
			orphans = append(orphans, pos+": "+name)
		case uses[name] > 1 && kept:
			t.Errorf("keptExports lists %s, which non-test code now calls: drop it from the list", name)
		}
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Errorf("%s is named only at its declaration in non-test code: delete it or add it to keptExports with a reason", o)
	}
}
