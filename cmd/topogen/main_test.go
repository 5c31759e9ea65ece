package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"asmodel/internal/dataset"
	"asmodel/internal/gen"
	"asmodel/internal/mrt"
)

func smallCfg() gen.Config {
	cfg := gen.DefaultConfig()
	cfg.NumTier2, cfg.NumTier3, cfg.NumStub = 8, 15, 25
	cfg.NumVantageASes = 10
	return cfg
}

// TestRunWritesDatasetAndMRT: -mrt writes a RIB dump with one route per
// dataset record, and -updates an update stream whose replay has one
// record per normalized record.
func TestRunWritesDatasetAndMRT(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "paths.txt")
	mrtOut := filepath.Join(dir, "rib.mrt")
	updatesOut := filepath.Join(dir, "updates.mrt")
	if err := run(context.Background(), smallCfg(), out, mrtOut, updatesOut, true, 2, "", nil); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ds, err := dataset.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() == 0 {
		t.Fatal("empty dataset written")
	}
	mf, err := os.Open(mrtOut)
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	mds, _, err := mrt.ToDataset(mf)
	if err != nil {
		t.Fatal(err)
	}
	if mds.Len() != ds.Len() {
		t.Errorf("MRT round trip: %d != %d records", mds.Len(), ds.Len())
	}
	uf, err := os.Open(updatesOut)
	if err != nil {
		t.Fatal(err)
	}
	defer uf.Close()
	uds, _, err := mrt.UpdatesToDataset(uf, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := ds.Normalize().Len(); uds.Len() != want {
		t.Errorf("update stream replays to %d records, want the %d normalized records", uds.Len(), want)
	}
}

func TestRunInvalidConfig(t *testing.T) {
	cfg := smallCfg()
	cfg.NumTier1 = 0
	if err := run(context.Background(), cfg, filepath.Join(t.TempDir(), "x"), "", "", true, 1, "", nil); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestRunBadOutputPath(t *testing.T) {
	if err := run(context.Background(), smallCfg(), "/nonexistent-dir/paths.txt", "", "", true, 1, "", nil); err == nil {
		t.Error("bad output path accepted")
	}
	if err := run(context.Background(), smallCfg(), filepath.Join(t.TempDir(), "ok.txt"), "/nonexistent-dir/rib.mrt", "", true, 1, "", nil); err == nil {
		t.Error("bad MRT path accepted")
	}
	if err := run(context.Background(), smallCfg(), filepath.Join(t.TempDir(), "ok.txt"), "", "/nonexistent-dir/updates.mrt", true, 1, "", nil); err == nil {
		t.Error("bad update-stream path accepted")
	}
}

func TestRunWorkerCountsProduceIdenticalOutput(t *testing.T) {
	dir := t.TempDir()
	seq := filepath.Join(dir, "seq.txt")
	par := filepath.Join(dir, "par.txt")
	if err := run(context.Background(), smallCfg(), seq, "", "", true, 1, "", nil); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), smallCfg(), par, "", "", true, 4, "", nil); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(par)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("-workers 4 output differs from sequential")
	}
}
