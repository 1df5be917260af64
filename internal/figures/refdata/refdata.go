// Package refdata embeds the committed reference artifacts the figure suite
// validates against: one JSON table per (experiment, scale), generated once
// at tiny scale by `upim figures -exp all -scale tiny -writeref
// internal/figures/refdata` and checked in. Because the simulator is fully
// deterministic, any drift between a regenerated table and its reference
// beyond the check epsilon means a simulation change shifted a paper figure
// — which is exactly what `upim figures -check` exists to catch.
//
// Regenerate these files only when a simulation change is *intended* to move
// the figures, and say so in the commit.
package refdata

import (
	"embed"
	"errors"
	"fmt"
	"io/fs"

	"upim/internal/artifact"
)

//go:embed *.json
var files embed.FS

// FileName maps an experiment key and scale stamp to the reference file
// name: "fig5.tiny.json", or "table1.json" for scale-independent tables.
func FileName(key, scale string) string {
	if scale == "" {
		return key + ".json"
	}
	return key + "." + scale + ".json"
}

// Load returns the committed reference table for (key, scale). The boolean
// reports whether a reference exists; decoding errors are real errors.
func Load(key, scale string) (*artifact.Table, bool, error) {
	data, err := files.ReadFile(FileName(key, scale))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, false, nil
		}
		return nil, false, err
	}
	t, err := artifact.DecodeTable(data)
	if err != nil {
		return nil, true, fmt.Errorf("refdata: %s: %w", FileName(key, scale), err)
	}
	return t, true, nil
}
