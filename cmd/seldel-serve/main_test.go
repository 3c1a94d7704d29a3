package main

import (
	"context"
	"encoding/json"
	"net/http"
	"path/filepath"
	"testing"
	"time"
)

// startServe runs the command against an ephemeral port and returns
// its base URL plus a cancel that shuts it down gracefully.
func startServe(t *testing.T, extraArgs ...string) (string, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan string, 1)
	errCh := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	go func() {
		errCh <- run(ctx, args, func(addr string) { addrCh <- addr })
	}()
	select {
	case addr := <-addrCh:
		t.Cleanup(func() {
			cancel()
			select {
			case err := <-errCh:
				if err != nil {
					t.Errorf("serve exited: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Error("serve did not shut down")
			}
		})
		return "http://" + addr, cancel
	case err := <-errCh:
		t.Fatalf("serve failed to start: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("serve never reported ready")
	}
	panic("unreachable")
}

func TestServeSmoke(t *testing.T) {
	base, _ := startServe(t)
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", resp.StatusCode)
	}
	var stats struct {
		Server struct {
			MaxPendingEntries int64 `json:"max_pending_entries"`
		} `json:"server"`
	}
	resp, err = http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Server.MaxPendingEntries == 0 {
		t.Error("stats reports no admission budget")
	}
}

func TestServePartitionedAndDurableSmoke(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	base, _ := startServe(t, "-store", dir, "-durability", "group")
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", resp.StatusCode)
	}
}

func TestServeFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-durability", "group"},       // group commit requires -store
		{"-durability", "bogus"},       // unknown mode
		{"-partitions", "2"},           // undefined flag: one chain type
		{"-shed-frac", "1.5"},          // fraction out of range
		{"-addr", "127.0.0.1:0", "-x"}, // unknown flag
	} {
		if err := run(context.Background(), args, func(string) {}); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
