package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"gscalar"
)

// digestFile is the committed table of expected simulated results, relative
// to the repository root.
const digestFile = "gsbench/digests.json"

// digestEntry is one point's expected Result: a digest of the whole Result
// plus the simulated counts the rate metrics divide by.
type digestEntry struct {
	Digest     string  `json:"digest"`
	WarpInsts  uint64  `json:"warp_insts"`
	Cycles     uint64  `json:"cycles"`
	DRAMTx     uint64  `json:"dram_tx"`
	L1MissRate float64 `json:"l1_miss_rate"`
}

// digestTable maps "<loop>/<arch>/<workload>" to the expected Result. The
// serial and relaxed chip loops have separate entries because their cycle
// counts legitimately differ.
type digestTable map[string]digestEntry

func digestKey(loop string, arch gscalar.Arch, abbr string) string {
	return loop + "/" + arch.String() + "/" + abbr
}

func loadDigests(root string) (digestTable, error) {
	b, err := os.ReadFile(filepath.Join(root, digestFile))
	if err != nil {
		return nil, err
	}
	var t digestTable
	if err := json.Unmarshal(b, &t); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", digestFile, err)
	}
	return t, nil
}

// resultDigest hashes a Result's JSON form with the execution metadata
// (ExecMode, ResolvedWorkers) cleared: they describe how the run executed,
// not what it simulated.
func resultDigest(res gscalar.Result) string {
	res.ExecMode, res.ResolvedWorkers = "", 0
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // Result holds only numbers, strings and a string-keyed map
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func entryOf(res gscalar.Result) digestEntry {
	return digestEntry{
		Digest:     resultDigest(res),
		WarpInsts:  res.WarpInsts,
		Cycles:     res.Cycles,
		DRAMTx:     res.DRAMTransactions,
		L1MissRate: res.L1MissRate,
	}
}

// verifyResult checks one point's Result against the table and asserts the
// chip loop and worker count it actually ran with, so a relaxed point that
// silently ran serial fails.
func verifyResult(tab digestTable, loop string, workers int, arch gscalar.Arch, abbr string, res gscalar.Result) error {
	if res.ExecMode != loop || res.ResolvedWorkers != workers {
		return fmt.Errorf("%s/%s ran %s with %d workers, want %s with %d",
			arch, abbr, res.ExecMode, res.ResolvedWorkers, loop, workers)
	}
	want, ok := tab[digestKey(loop, arch, abbr)]
	if !ok {
		return fmt.Errorf("no digest for %s", digestKey(loop, arch, abbr))
	}
	if got := resultDigest(res); got != want.Digest {
		return fmt.Errorf("%s: result digest %.12s, want %.12s (cycles %d vs %d, warp insts %d vs %d)",
			digestKey(loop, arch, abbr), got, want.Digest, res.Cycles, want.Cycles, res.WarpInsts, want.WarpInsts)
	}
	return nil
}

// figureSection returns the section of experiments_output.txt that starts
// with header, up to (not including) the blank line that ends it.
func figureSection(output, header string) (string, bool) {
	i := strings.Index(output, header+"\n")
	if i < 0 {
		return "", false
	}
	sec := output[i:]
	if j := strings.Index(sec, "\n\n"); j >= 0 {
		sec = sec[:j]
	}
	return strings.TrimRight(sec, "\n"), true
}

// compareFigure checks a rendered figure table against its section of the
// committed experiments output.
func compareFigure(output, rendered string) error {
	rendered = strings.TrimRight(rendered, "\n")
	header, _, _ := strings.Cut(rendered, "\n")
	want, ok := figureSection(output, header)
	if !ok {
		return fmt.Errorf("section %q not found in experiments_output.txt", header)
	}
	if rendered != want {
		return fmt.Errorf("%q differs from experiments_output.txt:\n--- got\n%s\n--- want\n%s", header, rendered, want)
	}
	return nil
}

// checkWarm checks one warm-phase resubmission: it must be served from the
// store, start no simulation, and return the cold phase's bytes.
func checkWarm(simsBefore, simsAfter uint64, cached bool, cold, warm []byte) error {
	if simsAfter != simsBefore {
		return fmt.Errorf("warm resubmission ran %d new simulations", simsAfter-simsBefore)
	}
	if !cached {
		return fmt.Errorf("warm resubmission was not a store hit")
	}
	if !bytes.Equal(cold, warm) {
		return fmt.Errorf("warm result bytes differ from the cold phase")
	}
	return nil
}

// writeDigests simulates every builtin on the paper-sweep architectures
// (serial loop) and on baseline/gscalar (relaxed loop) and writes the table.
func writeDigests(root string) error {
	tab := digestTable{}
	run := func(loop string, cfg gscalar.Config, archs []gscalar.Arch) error {
		for _, arch := range archs {
			sess, err := gscalar.NewSession(cfg, arch)
			if err != nil {
				return err
			}
			for _, abbr := range gscalar.Workloads() {
				res, err := sess.RunWorkload(context.Background(), abbr, 1)
				if err != nil {
					return err
				}
				tab[digestKey(loop, arch, abbr)] = entryOf(res)
			}
		}
		return nil
	}
	if err := run("serial", gscalar.DefaultConfig(), gscalar.AllArchs()); err != nil {
		return err
	}
	if err := run("relaxed", relaxedConfig(), suiteArchs); err != nil {
		return err
	}
	b, err := json.MarshalIndent(tab, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, digestFile), append(b, '\n'), 0o644)
}
