package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"asmodel/internal/bgp"
	"asmodel/internal/dataset"
	"asmodel/internal/model"
	"asmodel/internal/topology"
)

// writeTinyCheckpoint builds a minimal refined-model checkpoint the
// daemon can serve.
func writeTinyCheckpoint(t *testing.T, path string) {
	t.Helper()
	rec := func(obs string, prefix string, path ...bgp.ASN) dataset.Record {
		return dataset.Record{Obs: dataset.ObsPointID(obs), ObsAS: path[0], Prefix: prefix, Path: bgp.Path(path)}
	}
	ds := &dataset.Dataset{Records: []dataset.Record{
		rec("o1", "P1", 1, 2, 4),
		rec("o2", "P1", 3, 1, 2, 4),
		rec("o3", "P2", 1, 3),
		rec("o4", "P3", 2, 5),
	}}
	m, err := model.NewInitial(topology.FromDataset(ds), dataset.NewUniverse(ds))
	if err != nil {
		t.Fatal(err)
	}
	cp := &model.Checkpoint{
		Iteration: 4,
		Works:     []model.CheckpointWork{{Prefix: "P1", State: "settled"}},
		Model:     m,
	}
	var buf bytes.Buffer
	if err := model.WriteCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestExitCodes(t *testing.T) {
	ctx := context.Background()
	if got := run(ctx, nil); got != exitUsage {
		t.Fatalf("no args: exit %d, want %d", got, exitUsage)
	}
	if got := run(ctx, []string{"-h"}); got != exitOK {
		t.Fatalf("-h: exit %d, want %d", got, exitOK)
	}
	if got := run(ctx, []string{"-no-such-flag"}); got != exitUsage {
		t.Fatalf("bad flag: exit %d, want %d", got, exitUsage)
	}
	if got := run(ctx, []string{"-checkpoint", "x", "stray"}); got != exitUsage {
		t.Fatalf("stray arg: exit %d, want %d", got, exitUsage)
	}
	if got := run(ctx, []string{"-checkpoint", "/nonexistent/ckpt"}); got != exitRuntime {
		t.Fatalf("missing checkpoint: exit %d, want %d", got, exitRuntime)
	}
}

// freeAddr returns a loopback address with a port that was free a
// moment ago, so a test can pass the daemon an -addr it can then dial.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// waitReady polls /readyz until the daemon at addr answers 200.
func waitReady(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if resp, err := http.Get(base + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("daemon never became ready")
}

// loadWithReloads fires clients × perClient predictions over real HTTP
// while one more client POSTs /-/reload reloads times, re-reading the
// checkpoint file mid-load. Every prediction and every reload must be
// answered 200, and each reload must install a new snapshot.
func loadWithReloads(t *testing.T, base string, clients, perClient, reloads int) {
	t.Helper()
	var wg sync.WaitGroup
	errc := make(chan error, clients+1)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				url := fmt.Sprintf("%s/v1/predict?vantage=%d&prefix=P%d&k=2", base, 1+(c+i)%5, 1+i%3)
				resp, err := http.Get(url)
				if err != nil {
					errc <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
					return
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < reloads; i++ {
			resp, err := http.Post(base+"/-/reload", "", nil)
			if err != nil {
				errc <- err
				return
			}
			var body struct{ Seq int64 }
			err = json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				errc <- fmt.Errorf("reload %d: status %d, %v", i, resp.StatusCode, err)
				return
			}
			if want := int64(i) + 2; body.Seq != want { // seq 1 is the boot load
				errc <- fmt.Errorf("reload %d installed seq %d, want %d", i, body.Seq, want)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestServeSmoke boots the daemon on a loopback port, lets it serve,
// then sends the drain signal (context cancel, as SIGTERM does) and
// expects a clean exit with a run report. With load, it first answers
// concurrent predictions over HTTP while the checkpoint file is
// reloaded mid-load.
func TestServeSmoke(t *testing.T) {
	for _, tc := range []struct {
		name string
		load bool
	}{
		{"idle", false},
		{"reloads under load", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ckpt := filepath.Join(dir, "ckpt.txt")
			writeTinyCheckpoint(t, ckpt)
			report := filepath.Join(dir, "report.json")
			addr := freeAddr(t)

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan int, 1)
			go func() {
				done <- run(ctx, []string{"-checkpoint", ckpt, "-addr", addr, "-report", report})
			}()
			base := "http://" + addr
			waitReady(t, base)
			if tc.load {
				loadWithReloads(t, base, 6, 20, 3)
			}
			cancel()
			select {
			case got := <-done:
				if got != exitOK {
					t.Fatalf("drained daemon exited %d, want %d", got, exitOK)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("daemon did not exit after cancel")
			}

			data, err := os.ReadFile(report)
			if err != nil {
				t.Fatalf("run report missing: %v", err)
			}
			var rep map[string]any
			if err := json.Unmarshal(data, &rep); err != nil {
				t.Fatal(err)
			}
			sections, ok := rep["sections"].(map[string]any)
			if !ok || sections["serve"] == nil {
				t.Fatalf("run report has no serve section: %s", data)
			}
		})
	}
}
