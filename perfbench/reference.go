package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"smarco/internal/chip"
	"smarco/internal/kernels"
)

// referenceJSON records small-sampled-kmp's full-detail cycle count for a
// set of seeds: the same inputs and chip without sampling. The traced run
// reports the sampled estimate's error against it; reference_test.go
// re-measures it so a model change cannot leave it silently stale.
//
//go:embed reference.json
var referenceJSON []byte

type reference struct {
	Workload string `json:"workload"`
	Inputs   string `json:"inputs"`
	// Commit is the commit the counts were measured on.
	Commit string `json:"commit"`
	// FullDetailCycles maps a seed to its full-detail cycle count.
	FullDetailCycles map[string]uint64 `json:"full_detail_cycles"`
}

const referenceInputs = "kmp tasks=40960 scale=16, 16-core small chip, serial executor, full detail"

func loadReference() (*reference, error) {
	var r reference
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	if r.Inputs != referenceInputs {
		return nil, fmt.Errorf("reference.json records inputs %q, the workload runs %q", r.Inputs, referenceInputs)
	}
	return &r, nil
}

// referenceCycles is the full-detail cycle count for small-sampled-kmp on
// seed: the recorded one, or for an unrecorded seed a fresh full-detail
// run (about a minute).
func referenceCycles(seed uint64) (uint64, error) {
	r, err := loadReference()
	if err != nil {
		return 0, err
	}
	if c, ok := r.FullDetailCycles[strconv.FormatUint(seed, 10)]; ok {
		return c, nil
	}
	return measureFullDetail(seed)
}

// measureFullDetail runs small-sampled-kmp's inputs at full detail and
// verifies the output.
func measureFullDetail(seed uint64) (uint64, error) {
	w, err := kernels.New("kmp", sampledInputs(seed))
	if err != nil {
		return 0, err
	}
	c, err := chip.Build(sampledChip(true), w.Mem)
	if err != nil {
		return 0, err
	}
	c.Submit(w.Tasks)
	cycles, err := c.Run(budget)
	if err != nil {
		return 0, fmt.Errorf("full-detail reference, seed %d: %w", seed, err)
	}
	if err := w.Check(); err != nil {
		return 0, fmt.Errorf("full-detail reference, seed %d: %w", seed, err)
	}
	return cycles, nil
}

// recordReference measures seeds 1..n at full detail and writes a new
// reference.json.
func recordReference(out io.Writer, n int, commit string) error {
	r := reference{
		Workload:         "small-sampled-kmp",
		Inputs:           referenceInputs,
		Commit:           commit,
		FullDetailCycles: map[string]uint64{},
	}
	for seed := 1; seed <= n; seed++ {
		c, err := measureFullDetail(uint64(seed))
		if err != nil {
			return err
		}
		r.FullDetailCycles[strconv.Itoa(seed)] = c
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", data)
	return err
}
