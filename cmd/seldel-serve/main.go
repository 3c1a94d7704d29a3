// Command seldel-serve runs the HTTP/2 (h2c) serving front-end over a
// selective-deletion chain: client-signed submits batched into the
// submission pipeline, snapshot-consistent entry pagination, tombstone
// and deletion-proof reads, stats, and admission control that sheds
// with 429 + Retry-After before the intake queue saturates.
//
// Usage:
//
//	seldel-serve -addr :8420 -store /var/lib/seldel
//	seldel-serve -addr :8420 -durability group -group-window 2ms
//
// The identity registry is seeded with -keys deterministic user keys
// derived from -key-seed (user000, user001, ...), so a client can sign
// with identity.Deterministic("user%03d", seed), as this command's
// tests do. Production deployments would load a real registry instead;
// the deterministic one makes the binary testable on its own.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/seldel/seldel/internal/identity"
	"github.com/seldel/seldel/internal/serve"
	"github.com/seldel/seldel/internal/simclock"

	seldel "github.com/seldel/seldel"
)

func main() {
	if err := run(context.Background(), os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "seldel-serve:", err)
		os.Exit(1)
	}
}

// registrySeed registers n deterministic user keys (user000...) plus a
// master key, the keys a client derives with identity.Deterministic.
func registrySeed(n int, seed string) (*identity.Registry, error) {
	reg := identity.NewRegistry()
	for i := 0; i < n; i++ {
		kp := identity.Deterministic(fmt.Sprintf("user%03d", i), seed)
		if err := reg.RegisterKey(kp, identity.RoleUser); err != nil {
			return nil, err
		}
	}
	if err := reg.RegisterKey(identity.Deterministic("master", seed), identity.RoleMaster); err != nil {
		return nil, err
	}
	return reg, nil
}

// run is main without the process plumbing: tests pass ready to learn
// the bound address (use -addr 127.0.0.1:0) and cancel ctx to stop.
func run(ctx context.Context, args []string, ready func(addr string)) error {
	fs := flag.NewFlagSet("seldel-serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8420", "listen address")
	storeDir := fs.String("store", "", "segment-store directory (empty: in-memory chain)")
	seqLen := fs.Int("seq-len", 3, "blocks per sequence (summary block distance)")
	maxSeq := fs.Int("max-sequences", 64, "live-chain bound in sequences (0: unbounded, no physical deletion)")
	durability := fs.String("durability", "seal", `receipt durability: "seal" or "group" (group commit; requires -store)`)
	groupWindow := fs.Duration("group-window", 0, "group-commit accumulation window (with -durability group)")
	keys := fs.Int("keys", 64, "deterministic user keys to register (user000, ...)")
	keySeed := fs.String("key-seed", "seldel-serve", "seed for deterministic key derivation")
	if err := fs.Parse(args); err != nil {
		return err
	}

	reg, err := registrySeed(*keys, *keySeed)
	if err != nil {
		return err
	}
	opts := []seldel.Option{
		seldel.WithSequenceLength(*seqLen),
		seldel.WithClock(simclock.NewWall()),
	}
	if *maxSeq > 0 {
		opts = append(opts, seldel.WithMaxSequences(*maxSeq))
	}
	if *storeDir != "" {
		opts = append(opts, seldel.WithSegmentStore(*storeDir))
	}
	switch *durability {
	case "seal":
	case "group":
		if *storeDir == "" {
			return errors.New("-durability group requires -store")
		}
		opts = append(opts, seldel.WithDurability(seldel.DurabilityGroup, *groupWindow))
	default:
		return fmt.Errorf("unknown -durability %q (want seal or group)", *durability)
	}

	c, err := seldel.New(reg, opts...)
	if err != nil {
		return err
	}
	defer func() { _ = c.Close() }()

	httpSrv := serve.New(c, serve.Options{}).HTTPServer(*addr)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "seldel-serve: listening on %s (store=%q durability=%s)\n",
		ln.Addr(), *storeDir, *durability)
	if ready != nil {
		ready(ln.Addr().String())
	}

	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
