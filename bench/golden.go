package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// goldenSeed is the configuration seed whose output is pinned.
const goldenSeed = 1

// goldenPath is where -update-golden writes, relative to the repository
// root that bench/run.sh runs from. The file is embedded at build time.
const goldenPath = "bench/golden.json"

// goldenEntry pins one workload's output at goldenSeed.
type goldenEntry struct {
	Digest       string `json:"digest"`
	MaxTerminals int    `json:"max_terminals,omitempty"` // sweep only
	Runs         int    `json:"runs,omitempty"`          // sweep only
}

//go:embed golden.json
var goldenJSON []byte

func loadGolden() (map[string]goldenEntry, error) {
	g := map[string]goldenEntry{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// checkGolden compares a goldenSeed unit with the pinned output.
func checkGolden(g map[string]goldenEntry, w *workload, u *unit) error {
	want, ok := g[w.name]
	if !ok {
		return fmt.Errorf("golden.json has no entry for %s (regenerate with -update-golden)", w.name)
	}
	if w.sweep && (u.maxTerminals != want.MaxTerminals || u.runs != want.Runs) {
		return fmt.Errorf("golden: max terminals %d in %d runs, want %d in %d",
			u.maxTerminals, u.runs, want.MaxTerminals, want.Runs)
	}
	if u.digest != want.Digest {
		return fmt.Errorf("golden: digest %.12s, want %.12s", u.digest, want.Digest)
	}
	return nil
}

// updateGolden runs every workload once at goldenSeed and rewrites
// golden.json.
func updateGolden() error {
	g := map[string]goldenEntry{}
	for _, w := range workloads {
		u := w.runUnit(goldenSeed, false)
		if u.err == nil {
			u.err = checkUnit(w, u)
		}
		if u.err != nil {
			return fmt.Errorf("%s: %w", w.name, u.err)
		}
		e := goldenEntry{Digest: u.digest}
		if w.sweep {
			e.MaxTerminals, e.Runs = u.maxTerminals, u.runs
		}
		g[w.name] = e
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", goldenPath)
	return nil
}
